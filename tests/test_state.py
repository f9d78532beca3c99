"""Tests for the sparse pure-state layer."""
import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from wecp.state import (
    IncompatibleStates,
    Ket,
    ModeCollision,
    Polarization,
    PureState,
    ZeroState,
    fidelity,
    fresh_label,
    norm_squared,
    normalize,
)

H = Polarization.H
V = Polarization.V
NONE = Polarization.NONE

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def single(mode):
    return Ket(((mode, NONE),))


def w3(a, b, c):
    return PureState({single("a1"): a, single("b1"): b, single("c1"): c})


# --- Ket ---------------------------------------------------------------

def test_ket_canonical_order():
    k1 = Ket((("b1", V), ("a1", H), ("c1", V)))
    k2 = Ket((("a1", H), ("c1", V), ("b1", V)))
    assert k1 == k2
    assert hash(k1) == hash(k2)
    assert k1.modes == ("a1", "b1", "c1")


@given(st.permutations([("a1", NONE), ("b2", NONE), ("zz9", NONE), ("m5", NONE)]))
def test_ket_canonicalization_any_permutation(photons):
    assert Ket(tuple(photons)) == Ket((("a1", NONE), ("b2", NONE), ("m5", NONE), ("zz9", NONE)))


def test_ket_rejects_double_occupancy():
    with pytest.raises(ModeCollision):
        Ket((("a1", H), ("a1", V)))


def test_ket_move_keeps_tag():
    k = Ket((("a1", H), ("b1", V)))
    assert k.move("a1", "a2") == Ket((("a2", H), ("b1", V)))
    with pytest.raises(KeyError):
        k.move("c1", "c2")


MODE_NAMES = st.text(alphabet="abcxyz0129", min_size=1, max_size=4)
PHOTON_LISTS = st.dictionaries(MODE_NAMES, st.sampled_from([H, V]), min_size=1, max_size=8)


@given(PHOTON_LISTS, st.data())
def test_ket_permutations_equal_and_hash_equal(tags, data):
    photons = list(tags.items())
    shuffled = data.draw(st.permutations(photons))
    a, b = Ket(tuple(photons)), Ket(tuple(shuffled))
    assert a == b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@given(PHOTON_LISTS, st.lists(MODE_NAMES, max_size=6))
def test_ket_lookups_agree_with_photon_scan(tags, probes):
    k = Ket(tuple(tags.items()))
    assert k.modes == tuple(m for m, _ in k.photons)
    assert k.modes == tuple(sorted(tags))
    for mode in list(tags) + probes:
        scanned = [pol for m, pol in k.photons if m == mode]
        assert k.has(mode) == bool(scanned)
        assert k.polarization_at(mode) == (scanned[0] if scanned else None)


def test_ket_move_onto_occupied_mode_collides():
    with pytest.raises(ModeCollision):
        Ket((("a1", H), ("b1", V))).move("a1", "b1")


def test_ket_copy_and_pickle_rebuild_the_cache():
    k = Ket((("b1", V), ("a1", H)))
    for clone in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert clone == k and hash(clone) == hash(k)
        assert clone.polarization_at("b1") is V


@st.composite
def move_chains(draw):
    """A photon map and a few moves, each from an occupied to a free mode."""
    tags = draw(PHOTON_LISTS)
    moves = []
    occupied = set(tags)
    for _ in range(draw(st.integers(1, 4))):
        src = draw(st.sampled_from(sorted(occupied)))
        dst = draw(MODE_NAMES.filter(lambda m: m not in occupied))
        moves.append((src, dst))
        occupied = (occupied - {src}) | {dst}
    return tags, moves


@given(move_chains())
def test_ket_move_matches_public_constructor(case):
    tags, moves = case
    ket, photons = Ket(tuple(tags.items())), dict(tags)
    for src, dst in moves:
        ket = ket.move(src, dst)
        photons[dst] = photons.pop(src)
        built = Ket(tuple(photons.items()))
        assert ket == built and hash(ket) == hash(built)
        assert ket.photons == built.photons
        assert ket.modes == tuple(sorted(photons))


@given(move_chains())
def test_ket_move_there_and_back_restores_hash(case):
    tags, moves = case
    start = Ket(tuple(tags.items()))
    ket = start
    for src, dst in moves:
        ket = ket.move(src, dst)
    for src, dst in reversed(moves):
        ket = ket.move(dst, src)
    assert ket == start and hash(ket) == hash(start)


@given(PHOTON_LISTS, st.data())
def test_ket_photons_stay_sorted(tags, data):
    photons = data.draw(st.permutations(list(tags.items())))
    ket = Ket(tuple(photons))
    modes = [m for m, _ in ket.photons]
    assert modes == sorted(modes) and len(set(modes)) == len(modes)
    assert dict(ket.photons) == tags


@given(PHOTON_LISTS, st.sampled_from(["photons", "modes", "_pol", "_hash", "_tags", "extra"]))
def test_ket_rejects_attribute_assignment(tags, name):
    ket = Ket(tuple(tags.items()))
    with pytest.raises(AttributeError):
        setattr(ket, name, ())
    with pytest.raises(AttributeError):
        delattr(ket, name)
    assert ket == Ket(tuple(tags.items()))


def test_ket_move_onto_own_mode_is_identity():
    k = Ket((("a1", H), ("b1", V)))
    assert k.move("a1", "a1") is k


def test_w_state_kets_hash_apart():
    # one H among N V photons: the kets differ only in which party holds H
    modes = [f"p{i}" for i in range(64)]
    kets = [Ket(tuple((m, H if m == hot else V) for m in modes)) for hot in modes]
    assert len({hash(k) for k in kets}) == len(kets)
    moved = [k.move("p0", "q0") for k in kets]
    assert len({hash(k) for k in moved}) == len(kets)


def test_polarization_hash_is_consistent_with_equality():
    assert len({H, V, NONE, Polarization("H"), Polarization("-")}) == 3
    assert hash(Polarization("V")) == hash(V)


# --- PureState construction --------------------------------------------

def test_mixed_convention_rejected():
    with pytest.raises(IncompatibleStates):
        PureState({single("a1"): 0.6, Ket((("b1", H),)): 0.8})


def test_photon_count_must_match():
    with pytest.raises(IncompatibleStates):
        PureState({single("a1"): 0.6, Ket((("b1", NONE), ("c1", NONE))): 0.8})


def test_norm_cap():
    with pytest.raises(ValueError):
        PureState({single("a1"): 1.0, single("b1"): 0.5})


def test_prune_drops_negligible_terms():
    # prune_eps thresholds the squared amplitude
    s = PureState({single("a1"): 1.0, single("b1"): 1e-7}, prune_eps=1e-15)
    assert set(s.terms) == {single("a1"), single("b1")}
    s2 = PureState({single("a1"): 1.0, single("b1"): 1e-7}, prune_eps=1e-12)
    assert set(s2.terms) == {single("a1")}


def test_all_pruned_raises_zerostate():
    with pytest.raises(ZeroState):
        PureState({single("a1"): 1e-9}, prune_eps=1e-12)


def test_terms_must_live_on_registered_modes():
    with pytest.raises(ValueError):
        PureState({single("a1"): 1.0}, modes=["b1"])


def test_registry_may_include_vacuum_modes():
    s = PureState({single("a1"): 1.0}, modes=["a1", "a2", "a3"])
    assert s.modes == frozenset({"a1", "a2", "a3"})


def test_state_is_immutable():
    s = w3(INV_SQRT3, INV_SQRT3, INV_SQRT3)
    with pytest.raises(AttributeError):
        s.prune_eps = 0.0
    with pytest.raises(TypeError):
        s.terms[single("a1")] = 1.0


def test_nan_amplitude_is_rejected_not_pruned():
    for nan in (math.nan, complex(0.0, math.nan)):
        with pytest.raises(ValueError) as info:
            PureState({single("a1"): nan, single("b1"): 1.0})
        assert not isinstance(info.value, ZeroState)


def test_lone_nan_amplitude_is_not_a_zero_state():
    with pytest.raises(ValueError) as info:
        PureState({single("a1"): math.nan})
    assert not isinstance(info.value, ZeroState)


def test_infinite_amplitude_rejected():
    for inf in (math.inf, -math.inf, complex(0.0, math.inf)):
        with pytest.raises(ValueError):
            PureState({single("a1"): inf, single("b1"): 0.5})


# --- norm_squared -------------------------------------------------------

def test_norm_squared_of_w3_is_one():
    assert norm_squared(w3(INV_SQRT3, INV_SQRT3, INV_SQRT3)) == pytest.approx(1.0, abs=1e-12)


def test_norm_squared_single_term():
    assert norm_squared(PureState({single("a1"): 0.6})) == pytest.approx(0.36, abs=1e-15)


def test_norm_squared_post_selected_branch():
    # branch kept after splitting the first coefficient with t=0.4 and
    # discarding the reflected term; weight is 0.5*0.4 + 0.3 + 0.2 = 0.7
    a, b, g = math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)
    t1 = 0.4
    s = PureState({single("a2"): a * math.sqrt(t1), single("b1"): b, single("c1"): g})
    assert norm_squared(s) == pytest.approx(0.7, abs=1e-12)


AMPLITUDES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(AMPLITUDES, min_size=1, max_size=40))
def test_norm_squared_is_sum_of_squared_moduli(amps):
    n = len(amps)
    terms = {single(f"m{i}"): a / math.sqrt(n) for i, a in enumerate(amps)}
    try:
        s = PureState(terms)
    except ZeroState:
        return
    expected = sum(abs(a) ** 2 for a in s.terms.values())
    assert abs(norm_squared(s) - expected) <= 1e-15 * n


# --- normalize ----------------------------------------------------------

def test_normalize_already_normalized():
    s = w3(INV_SQRT3, INV_SQRT3, INV_SQRT3)
    assert normalize(s).isclose(s, atol=1e-12)


def test_normalize_removes_global_scale():
    g = INV_SQRT3 * 0.5
    s = normalize(w3(g, g, g))
    for amp in s.terms.values():
        assert amp == pytest.approx(INV_SQRT3, abs=1e-12)


def test_normalize_equalized_two_coefficient_state():
    # after the second splitter at t2 = gamma^2/beta^2 the three amplitudes
    # coincide, so normalizing gives the uniform three-mode state
    b, g = math.sqrt(0.3), math.sqrt(0.2)
    t2 = 0.2 / 0.3
    s = PureState({single("a2"): g, single("b2"): b * math.sqrt(t2), single("c1"): g})
    n = normalize(s)
    assert norm_squared(n) == pytest.approx(1.0, abs=1e-12)
    for amp in n.terms.values():
        assert abs(amp - INV_SQRT3) < 1e-12


@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
def test_normalize_idempotent(weights):
    total = math.sqrt(sum(w * w for w in weights))
    terms = {single(f"m{i}"): w / total for i, w in enumerate(weights)}
    once = normalize(PureState(terms))
    twice = normalize(once)
    assert twice.isclose(once, atol=1e-12)
    assert norm_squared(once) == pytest.approx(1.0, abs=1e-12)


# --- fidelity -----------------------------------------------------------

def test_fidelity_self_is_one():
    s = w3(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_kets():
    assert fidelity(PureState({single("a1"): 1.0}), PureState({single("b1"): 1.0})) == 0.0


def test_fidelity_against_uniform_state():
    # independent oracle: |<W3|s>|^2 = (sum_i a_i / sqrt(3))^2 for real a_i
    a = (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
    expected = sum(x * INV_SQRT3 for x in a) ** 2
    assert expected == pytest.approx(0.9656500499439317, abs=1e-12)  # frozen
    f = fidelity(w3(INV_SQRT3, INV_SQRT3, INV_SQRT3), w3(*a))
    assert f == pytest.approx(expected, abs=1e-12)


def test_fidelity_normalizes_subnormalized_inputs():
    half = w3(0.5 * INV_SQRT3, 0.5 * INV_SQRT3, 0.5 * INV_SQRT3)
    full = w3(INV_SQRT3, INV_SQRT3, INV_SQRT3)
    assert fidelity(half, full) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_convention_mismatch():
    pol = PureState({Ket((("a1", H),)): 1.0})
    with pytest.raises(IncompatibleStates):
        fidelity(pol, PureState({single("a1"): 1.0}))


@given(
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
)
def test_fidelity_symmetric(w1, w2):
    n = min(len(w1), len(w2))
    n1 = math.sqrt(sum(w * w for w in w1[:n]))
    n2 = math.sqrt(sum(w * w for w in w2[:n]))
    s1 = PureState({single(f"m{i}"): w1[i] / n1 for i in range(n)})
    s2 = PureState({single(f"m{i}"): w2[i] / n2 for i in range(n)})
    assert fidelity(s1, s2) == fidelity(s2, s1)


# --- fresh_label ---------------------------------------------------------

def test_fresh_label_counts_up_from_base():
    assert fresh_label({"a1", "b1"}, "a1") == "a2"
    assert fresh_label({"a1", "a2", "b1"}, "a1") == "a3"
    assert fresh_label({"a1", "a2", "a3"}, "a2") == "a4"


def test_fresh_label_handles_bare_names():
    assert fresh_label({"alice"}, "alice") == "alice1"
    assert fresh_label({"alice", "alice1"}, "alice") == "alice2"


def test_fresh_label_never_collides():
    taken = {f"a{i}" for i in range(50)}
    lab = fresh_label(taken, "a1")
    assert lab not in taken
