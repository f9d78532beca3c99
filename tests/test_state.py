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
    _columns,
    _difference,
    _prune,
    _unref,
    fidelity,
    fresh_label,
    norm_squared,
)

from conftest import canonical

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
    # the photon's own mode counts as occupied too
    for dst in ("b1", "a1"):
        with pytest.raises(ModeCollision):
            Ket((("a1", H), ("b1", V))).move("a1", dst)


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
    # DEFAULT_PRUNE_EPS (1e-15) thresholds the squared amplitude
    s = PureState({single("a1"): 1.0, single("b1"): 1e-7})
    assert set(s.terms) == {single("a1"), single("b1")}
    s2 = PureState({single("a1"): 1.0, single("b1"): 1e-8})
    assert set(s2.terms) == {single("a1")}


def test_all_pruned_raises_zerostate():
    with pytest.raises(ZeroState):
        PureState({single("a1"): 1e-9})


def test_terms_must_live_on_registered_modes():
    with pytest.raises(ValueError):
        PureState({single("a1"): 1.0}, modes=["b1"])


def test_registry_may_include_vacuum_modes():
    s = PureState({single("a1"): 1.0}, modes=["a1", "a2", "a3"])
    assert s.modes == frozenset({"a1", "a2", "a3"})


def test_state_is_immutable():
    s = w3(INV_SQRT3, INV_SQRT3, INV_SQRT3)
    with pytest.raises(AttributeError):
        s.uses_polarization = True
    for name in ("uses_polarization", "modes", "photon_count"):
        with pytest.raises(AttributeError):
            delattr(s, name)
        getattr(s, name)
    with pytest.raises(TypeError):
        s.terms[single("a1")] = 1.0


def test_a_state_of_no_photons_reads_zero_and_tagged():
    # no kept photon is untagged, so the convention reads as polarization
    s = PureState({Ket(()): 1.0})
    assert s.photon_count == 0
    assert s.uses_polarization is True


def test_comparing_with_another_type_is_unequal():
    ket, state = single("a1"), w3(INV_SQRT3, INV_SQRT3, INV_SQRT3)
    assert ket != ket.photons and not ket == ket.photons
    assert state != dict(state.terms) and not state == dict(state.terms)


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
    # finite amplitudes whose squares sum past the largest float: the norm is
    # inf, as float addition gives, not an OverflowError
    with pytest.raises(ValueError):
        PureState({single("a1"): 1e154, single("b1"): 1e154})


TINY = 1e-9  # squared modulus 1e-18, below DEFAULT_PRUNE_EPS


@pytest.mark.parametrize("terms, modes, kept", [
    pytest.param({Ket((("a1", NONE), ("b1", NONE))): TINY, single("c1"): 0.5}, None,
                 {single("c1"): 0.5}, id="pruned-extra-photon"),
    pytest.param({Ket((("a1", H),)): TINY, single("c1"): 0.5}, None,
                 {single("c1"): 0.5}, id="pruned-tagged"),
    pytest.param({single("a1"): TINY, Ket((("c1", V),)): 0.5}, None,
                 {Ket((("c1", V),)): 0.5}, id="pruned-untagged"),
    pytest.param({single("zz"): TINY, single("c1"): 0.5}, ["c1"],
                 {single("c1"): 0.5}, id="pruned-unregistered"),
    pytest.param({Ket((("a1", H),)): 0.6, single("b1"): 0.8}, None,
                 IncompatibleStates, id="tagged-first"),
    pytest.param({Ket((("a1", H), ("b1", NONE))): 0.6}, None,
                 IncompatibleStates, id="one-ket-both"),
])
def test_photon_count_and_convention_come_from_kept_terms(terms, modes, kept):
    # a pruned first ket is never checked and sets nothing; kept kets that mix
    # conventions are rejected whichever comes first
    if kept is IncompatibleStates:
        with pytest.raises(IncompatibleStates):
            PureState(terms, modes=modes)
        return
    got, want = PureState(terms, modes=modes), PureState(kept, modes=modes)
    assert list(got.terms.items()) == list(want.terms.items())
    assert (got.modes, norm_squared(got), got.photon_count, got.uses_polarization) == (
        want.modes, norm_squared(want), want.photon_count, want.uses_polarization)


# --- reference and differences --------------------------------------------

REFERENCE_CASES = [
    pytest.param({Ket((("a1", H), ("b1", V))): 0.6, Ket((("a1", V), ("b1", H))): 0.8j},
                 {}, id="no-majority"),
    # a1's V is held by two of three kets; the first lacks that photon
    pytest.param({Ket((("b1", H), ("c1", V))): 0.6, Ket((("a1", V), ("b1", V))): -0.48,
                  Ket((("a1", V), ("c1", H))): 0.64j}, {"a1": V}, id="first-ket-minority"),
    pytest.param({Ket((("a1", H), ("b1", V))): 0.6}, {"a1": H, "b1": V}, id="one-term"),
    pytest.param({single("a1"): 1.0}, {"a1": NONE}, id="one-untagged-term"),
    pytest.param({single("a1"): 0.6, single("b1"): 0.8}, {}, id="single-photon"),
]


@pytest.mark.parametrize("terms, ref", REFERENCE_CASES)
def test_reference_holds_each_mode_majority_tag(terms, ref):
    # the reference sets only how terms are stored: the physical terms, their
    # hashes, the derived facts and a copy read as the input's
    state = PureState(terms)
    assert state._ref == ref
    assert canonical(state)
    assert list(state.terms.items()) == list(terms.items())
    assert [hash(ket) for ket in state.terms] == [hash(ket) for ket in terms]
    first = next(iter(terms))
    assert state.photon_count == len(first.photons)
    assert state.uses_polarization == (first.polarization_at(first.modes[0]) is not NONE)
    for clone in (copy.copy(state), pickle.loads(pickle.dumps(state))):
        assert clone == state and clone._ref == ref


def test_differences_are_the_kets_under_a_vacuum_reference():
    # a single-photon W state keeps its kets as they came
    terms = {single("a1"): 0.6, single("b1"): 0.8}
    assert PureState(terms)._diffs == list(terms)


def _full_ket_fidelity(a, b):
    """|<a|b>|^2 / (|a|^2 |b|^2) over the physical terms, as ``fidelity`` sums it."""
    tb = dict(b.terms)
    products = [x.conjugate() * tb[k] for k, x in a.terms.items() if k in tb]
    overlap = complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))
    return min(max(abs(overlap) ** 2 / (norm_squared(a) * norm_squared(b)), 0.0), 1.0)


def test_fidelity_across_references_matches_the_full_ket_overlap():
    # the same kets stored over {a1: V} and over the vacuum: their
    # differences differ, so fidelity must compare the physical kets
    kets = list(REFERENCE_CASES[1].values[0])
    a = PureState(dict(zip(kets, (0.6, -0.48, 0.64j))))
    b = PureState(dict(zip(kets, (0.3, 0.4j, -0.5))))
    apart = _unref(b, ["a1"])
    assert a._ref == b._ref == {"a1": V} and apart._ref == {}
    assert apart == b
    expected = _full_ket_fidelity(a, b)
    assert 0.0 < expected < 1.0
    assert fidelity(a, apart) == fidelity(apart, a) == fidelity(a, b) == expected
    assert fidelity(apart, b) == fidelity(b, b)


# --- derivation from a validated parent ----------------------------------

PARENT_MODES = ("m0", "m1", "m2", "m3", "m4")
NEW_MODES = ("n0", "n1", "n2")


def kets_of(count, tags, modes):
    return st.lists(st.sampled_from(modes), min_size=count, max_size=count, unique=True).flatmap(
        lambda chosen: st.tuples(*(st.tuples(st.just(m), st.sampled_from(tags)) for m in chosen))
    ).map(Ket)


def phased(moduli):
    return st.tuples(moduli, st.floats(-math.pi, math.pi)).map(lambda rp: rp[0] * complex(
        math.cos(rp[1]), math.sin(rp[1])))


@st.composite
def relabeled(draw, ket):
    """``ket`` after one or two ``Ket.move`` calls, each into a free new mode."""
    for _ in range(draw(st.integers(1, 2))):
        free = [m for m in NEW_MODES if not ket.has(m)]
        if not free:
            break
        src = draw(st.sampled_from(ket.modes))
        ket = ket.move(src, draw(st.sampled_from(free)))
    return ket


@st.composite
def derivations(draw):
    """An element-like output of a parent state.

    The output keeps some of the parent's terms and adds kets that
    ``Ket.move`` made from parent kets, as every element does. Added
    amplitudes include values below the pruning threshold. At most one
    amplitude, on a carried or an added ket, is NaN or large enough to lift
    the squared norm above 1.
    """
    count = draw(st.integers(1, 3))
    tags = draw(st.sampled_from([(H, V), (NONE,)]))
    parent_kets = draw(st.lists(kets_of(count, tags, PARENT_MODES), min_size=1, max_size=4,
                                unique=True))
    vacuum = draw(st.sets(st.sampled_from(PARENT_MODES)))
    parent = PureState({k: draw(phased(st.floats(0.1, 0.35))) for k in parent_kets},
                       modes={m for k in parent_kets for m in k.modes} | vacuum)

    carried = draw(st.lists(st.sampled_from(parent_kets), unique=True))
    # a relabeled ket holds a new mode, so it is never a parent ket
    sources = draw(st.lists(st.sampled_from(parent_kets), min_size=1, max_size=4))
    added_kets = list(dict.fromkeys(draw(relabeled(k)) for k in sources))
    amps = st.one_of(phased(st.floats(0.0, 3e-8)), phased(st.floats(0.05, 0.3)))
    terms = dict(draw(st.permutations(
        [(k, parent.terms[k]) for k in carried] + [(k, draw(amps)) for k in added_kets])))
    fault = draw(st.sampled_from(["none", "nan", "norm"]))
    if fault != "none":
        terms[draw(st.sampled_from(list(terms)))] = (
            complex(math.nan, 0.0) if fault == "nan" else draw(phased(st.floats(1.0, 1.5))))
    # the element consumed some modes no kept ket holds, and named new ones
    occupied = {m for k in terms for m in k.modes}
    free = sorted(parent.modes - occupied)
    dropped = draw(st.sets(st.sampled_from(free))) if free else set()
    modes = (parent.modes - dropped) | occupied
    return parent, terms, modes


def _state_or_error(build):
    try:
        out = build()
    except ValueError as exc:
        return type(exc)
    terms = list(out.terms.items())
    return terms, out.modes, norm_squared(out), out.photon_count, out.uses_polarization


@given(derivations())
def test_derivation_matches_public_constructor(case):
    # kets relabeled from parent kets pass the constructor's structure checks
    # unchecked: the same kept terms in the same order, the same registry, the
    # same norm bits and the same verdict on a pruned, NaN or oversized
    # amplitude, wherever it sits
    parent, terms, modes = case
    reference = _state_or_error(lambda: PureState(dict(terms), modes=modes))

    def derived():
        # the element's columns: each kept ket as its difference from the
        # parent's reference
        kets, amps, squares = _prune(dict(terms).items())
        diffs = [_difference(parent._ref, ket._pol) for ket in kets]
        return _columns(parent._ref, diffs, amps, squares, frozenset(modes))

    assert _state_or_error(derived) == reference


def test_constructor_hashes_each_ket_once(monkeypatch):
    # a 4-party polarization W state: one H photon among four V photons
    parties = ["a1", "b1", "c1", "d1"]
    terms = {Ket(tuple((m, H if m == hot else V) for m in parties)): 0.5 for hot in parties}
    calls = []
    original = Ket.__hash__

    def counting(ket):
        calls.append(ket)
        return original(ket)

    monkeypatch.setattr(Ket, "__hash__", counting)
    state = PureState(terms)
    assert list(state.terms) == list(terms)
    assert len(calls) == len(terms)


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


@given(st.lists(AMPLITUDES, min_size=1, max_size=40), st.permutations(range(40)))
def test_norm_squared_is_sum_of_squared_moduli(amps, order):
    n = len(amps)
    terms = {single(f"m{i}"): a / math.sqrt(n) for i, a in enumerate(amps)}
    try:
        s = PureState(terms)
    except ZeroState:
        return
    expected = sum(abs(a) ** 2 for a in s.terms.values())
    assert abs(norm_squared(s) - expected) <= 1e-15 * n
    # the correctly rounded sum, so term order cannot set its bits
    assert norm_squared(s) == math.fsum(a.real * a.real + a.imag * a.imag
                                        for a in s.terms.values())
    keys = list(terms)
    permuted = PureState({keys[i]: terms[keys[i]] for i in order if i < n})
    assert norm_squared(permuted) == norm_squared(s)


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
    st.permutations(range(5)),
)
def test_fidelity_symmetric(w1, w2, order):
    n = min(len(w1), len(w2))
    n1 = math.sqrt(sum(w * w for w in w1[:n]))
    n2 = math.sqrt(sum(w * w for w in w2[:n]))
    s1 = PureState({single(f"m{i}"): w1[i] / n1 for i in range(n)})
    s2 = PureState({single(f"m{i}"): w2[i] / n2 for i in range(n)})
    assert fidelity(s1, s2) == fidelity(s2, s1)
    # the same terms in another order give the same bits
    permuted = PureState({single(f"m{i}"): w1[i] / n1 for i in order if i < n})
    assert fidelity(permuted, s2) == fidelity(s1, s2)


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
