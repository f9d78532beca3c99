"""Tests for the three optical elements."""
import math

import pytest
from hypothesis import given, strategies as st

from wecp.optics import (
    BadTransmittance,
    PbsWiring,
    UnknownMode,
    VbsSetting,
    WrongConvention,
    apply_pbs,
    apply_vbs,
    detect_vacuum,
)
from wecp.state import (
    Ket,
    ModeCollision,
    Polarization,
    PureState,
    ZeroState,
    norm_squared,
)

H = Polarization.H
V = Polarization.V
NONE = Polarization.NONE


def single(mode):
    return Ket(((mode, NONE),))


def pol_ket(*pairs):
    return Ket(tuple(pairs))


@pytest.fixture
def partial_w3():
    """alpha|a1> + beta|b1> + gamma|c1> with squared moduli (0.5, 0.3, 0.2)."""
    return PureState({
        single("a1"): math.sqrt(0.5),
        single("b1"): math.sqrt(0.3),
        single("c1"): math.sqrt(0.2),
    })


@pytest.fixture
def partial_pol_w3():
    """alpha|HVV> + beta|VHV> + gamma|VVH> on a1, b1, c1."""
    return PureState({
        pol_ket(("a1", H), ("b1", V), ("c1", V)): math.sqrt(0.5),
        pol_ket(("a1", V), ("b1", H), ("c1", V)): math.sqrt(0.3),
        pol_ket(("a1", V), ("b1", V), ("c1", H)): math.sqrt(0.2),
    })


# --- VBS -----------------------------------------------------------------

def test_vbs_single_ket_amplitudes():
    s = PureState({single("a"): 1.0})
    out = apply_vbs(s, VbsSetting("a", "a1", "a2", 0.36))
    assert out.terms[single("a1")] == pytest.approx(0.6, abs=1e-15)
    assert out.terms[single("a2")] == pytest.approx(0.8, abs=1e-15)


def test_vbs_full_transmission_is_relabel():
    s = PureState({single("a"): 1.0})
    out = apply_vbs(s, VbsSetting("a", "a1", "a2", 1.0))
    assert set(out.terms) == {single("a1")}
    assert out.terms[single("a1")] == 1.0
    assert "a2" in out.modes  # exists in the registry, just never occupied


def test_vbs_zero_transmission_reflects_everything():
    s = PureState({single("a"): 1.0})
    out = apply_vbs(s, VbsSetting("a", "a1", "a2", 0.0))
    assert set(out.terms) == {single("a2")}


def test_vbs_on_three_party_state(partial_w3):
    # splitting the first party at t1 gives four terms: the transmitted and
    # reflected pieces of alpha, with beta and gamma passing through
    t1 = 0.4
    out = apply_vbs(partial_w3, VbsSetting("a1", "a2", "a3", t1))
    a = math.sqrt(0.5)
    assert out.terms[single("a2")] == pytest.approx(a * math.sqrt(t1), abs=1e-15)
    assert out.terms[single("a3")] == pytest.approx(a * math.sqrt(1 - t1), abs=1e-15)
    assert out.terms[single("b1")] == pytest.approx(math.sqrt(0.3), abs=1e-15)
    assert out.terms[single("c1")] == pytest.approx(math.sqrt(0.2), abs=1e-15)
    assert norm_squared(out) == pytest.approx(norm_squared(partial_w3), abs=1e-12)
    assert "a1" not in out.modes


def test_vbs_bad_transmittance():
    with pytest.raises(BadTransmittance):
        VbsSetting("a", "b", "c", 1.2)
    with pytest.raises(BadTransmittance):
        VbsSetting("a", "b", "c", -0.1)


def test_vbs_output_collision():
    s = PureState({Ket((("a", NONE), ("b", NONE))): 1.0})
    with pytest.raises(ModeCollision):
        apply_vbs(s, VbsSetting("a", "b", "c", 0.5))
    with pytest.raises(ModeCollision):
        VbsSetting("a", "c", "c", 0.5)


def test_vbs_unknown_input():
    s = PureState({single("a"): 1.0})
    with pytest.raises(UnknownMode):
        apply_vbs(s, VbsSetting("zz", "x", "y", 0.5))


@given(st.floats(0.0, 1.0), st.lists(st.floats(0.05, 0.9), min_size=2, max_size=5))
def test_vbs_preserves_norm(t, weights):
    total = math.sqrt(sum(w * w for w in weights)) / 0.9  # keep sub-normalized
    terms = {single(f"m{i}"): w / total for i, w in enumerate(weights)}
    s = PureState(terms)
    out = apply_vbs(s, VbsSetting("m0", "x", "y", t))
    assert norm_squared(out) == pytest.approx(norm_squared(s), abs=1e-12)


@given(st.floats(0.001, 1.0))
def test_vbs_then_dark_reflection_keeps_probability_t(t):
    s = PureState({single("a"): 1.0})
    out = apply_vbs(s, VbsSetting("a", "a1", "a2", t))
    branch = detect_vacuum(out, "a2")
    assert branch.probability == pytest.approx(t, abs=1e-12)


# --- PBS -----------------------------------------------------------------

def test_pbs_routing_definition():
    s = PureState({pol_ket(("a1", H)): 0.8, pol_ket(("a1", V)): 0.6})
    out = apply_pbs(s, PbsWiring("a1", None, "a2", "a3"))
    assert out.terms[pol_ket(("a2", H))] == pytest.approx(0.8)
    assert out.terms[pol_ket(("a3", V))] == pytest.approx(0.6)


def test_pbs_splits_three_photon_state(partial_pol_w3):
    # H on the first party goes to a2; both V terms land on a3
    out = apply_pbs(partial_pol_w3, PbsWiring("a1", None, "a2", "a3"))
    assert out.terms[pol_ket(("a2", H), ("b1", V), ("c1", V))] == pytest.approx(math.sqrt(0.5))
    assert out.terms[pol_ket(("a3", V), ("b1", H), ("c1", V))] == pytest.approx(math.sqrt(0.3))
    assert out.terms[pol_ket(("a3", V), ("b1", V), ("c1", H))] == pytest.approx(math.sqrt(0.2))
    assert norm_squared(out) == pytest.approx(1.0, abs=1e-12)


def test_pbs_merges_two_paths():
    # the H path (a4) and V path (a3) of one party recombine on a6
    g, b = math.sqrt(0.2), math.sqrt(0.3)
    s = PureState({
        pol_ket(("a4", H), ("b1", V), ("c1", V)): g,
        pol_ket(("a3", V), ("b1", H), ("c1", V)): b,
        pol_ket(("a3", V), ("b1", V), ("c1", H)): g,
    })
    out = apply_pbs(s, PbsWiring("a4", "a3", "a6", "a7"))
    assert out.terms[pol_ket(("a6", H), ("b1", V), ("c1", V))] == pytest.approx(g)
    assert out.terms[pol_ket(("a6", V), ("b1", H), ("c1", V))] == pytest.approx(b)
    assert out.terms[pol_ket(("a6", V), ("b1", V), ("c1", H))] == pytest.approx(g)


def test_pbs_requires_polarization():
    with pytest.raises(WrongConvention):
        apply_pbs(PureState({single("a1"): 1.0}), PbsWiring("a1", None, "x", "y"))


def test_pbs_collision_within_one_ket():
    s = PureState({pol_ket(("a1", H), ("b1", V)): 1.0})
    with pytest.raises(ModeCollision):
        apply_pbs(s, PbsWiring("a1", "b1", "c1", "d1"))


def test_pbs_collision_when_both_inputs_route_to_one_output():
    # V on in_a and H on in_b both leave through out_d
    s = PureState({pol_ket(("a1", V), ("b1", H)): 1.0})
    with pytest.raises(ModeCollision):
        apply_pbs(s, PbsWiring("a1", "b1", "c1", "d1"))


def test_pbs_collision_with_bystander_on_output():
    # H on a1 routes to c1, where an untouched photon already sits
    s = PureState({pol_ket(("a1", H), ("c1", V)): 1.0})
    with pytest.raises(ModeCollision):
        apply_pbs(s, PbsWiring("a1", None, "c1", "d1"))
    # the other branch of the same state collides too, via out_d
    s = PureState({pol_ket(("a1", V), ("d1", H)): 1.0}, modes=["a1", "c1", "d1"])
    with pytest.raises(ModeCollision):
        apply_pbs(s, PbsWiring("a1", None, "c1", "d1"))


def _route_every_photon(state, w):
    """Reference PBS: rebuild each ket by routing all of its photons."""
    def route(mode, pol):
        if mode == w.in_a:
            return w.out_c if pol is H else w.out_d
        if mode == w.in_b:
            return w.out_d if pol is H else w.out_c
        return mode

    terms = {}
    for ket, amp in state.terms.items():
        routed = tuple((route(m, pol), pol) for m, pol in ket.photons)
        if len({m for m, _ in routed}) != len(routed):
            raise ModeCollision("reference routing collides")
        k = Ket(routed)
        terms[k] = terms.get(k, 0j) + amp
    modes = (set(state.modes) | {w.out_c, w.out_d}) - {w.in_a, w.in_b}
    return PureState(terms, modes=modes, prune_eps=state.prune_eps)


POOL = tuple(f"m{i}" for i in range(7))


@st.composite
def pbs_cases(draw):
    size = draw(st.integers(1, 4))
    kets = draw(st.lists(
        st.lists(st.sampled_from(POOL), min_size=size, max_size=size, unique=True).flatmap(
            lambda modes: st.tuples(*(st.tuples(st.just(m), st.sampled_from([H, V]))
                                      for m in modes))),
        min_size=1, max_size=5))
    terms = {}
    for photons in kets:
        terms[Ket(photons)] = 1.0
    norm = math.sqrt(len(terms))
    state = PureState({k: a / norm for k, a in terms.items()}, modes=POOL)
    labels = draw(st.permutations(POOL))
    in_b = labels[1] if draw(st.booleans()) else None
    return state, PbsWiring(labels[0], in_b, labels[2], labels[3])


def _outcome(element, state, wiring):
    """Output terms and registry, or the type of the error raised."""
    try:
        out = element(state, wiring)
    except ValueError as exc:
        return type(exc)
    return dict(out.terms), out.modes


@given(pbs_cases())
def test_pbs_matches_routing_every_photon(case):
    # Outputs may name registered modes here, so bystander collisions and
    # merged kets (norm above 1) occur alongside clean routings.
    state, wiring = case
    assert _outcome(apply_pbs, state, wiring) == _outcome(_route_every_photon, state, wiring)


def _split_every_ket(state, s):
    """Reference VBS: rebuild each ket from its photon list, checking outputs."""
    split = (math.sqrt(s.transmittance), math.sqrt(1.0 - s.transmittance))
    outs = (s.out_transmit, s.out_reflect)
    terms = {}
    for ket, amp in state.terms.items():
        photons = dict(ket.photons)
        tag = photons.pop(s.input, None)
        if any(out in photons for out in outs):
            raise ModeCollision("reference split collides")
        if tag is None:
            terms[ket] = terms.get(ket, 0j) + amp
            continue
        for out, factor in zip(outs, split):
            k = Ket(tuple(photons.items()) + ((out, tag),))
            terms[k] = terms.get(k, 0j) + amp * factor
    modes = set(state.modes) | set(outs)
    if s.input not in outs:
        modes.discard(s.input)
    return PureState(terms, modes=modes, prune_eps=state.prune_eps)


@given(pbs_cases(), st.sampled_from(POOL), st.permutations(POOL), st.floats(0.0, 1.0))
def test_vbs_matches_splitting_every_ket(case, src, labels, t):
    # Outputs may be the input itself, a bystander's mode or a free mode.
    state, _ = case
    setting = VbsSetting(src, labels[0], labels[1], t)
    assert _outcome(apply_vbs, state, setting) == _outcome(_split_every_ket, state, setting)


def test_pbs_wiring_labels_distinct():
    with pytest.raises(ModeCollision):
        PbsWiring("a1", "a1", "x", "y")
    with pytest.raises(ModeCollision):
        PbsWiring("a1", None, "x", "x")


def test_pbs_is_invertible(partial_pol_w3):
    fwd = PbsWiring("a1", None, "a2", "a3")
    out = apply_pbs(partial_pol_w3, fwd)
    # mirrored wiring routes both paths back onto one mode named like the input
    back = apply_pbs(out, PbsWiring("a2", "a3", "a1", "a9"))
    assert back == partial_pol_w3
    assert norm_squared(back) == pytest.approx(norm_squared(partial_pol_w3), abs=1e-15)


# --- vacuum detection ----------------------------------------------------

def test_detect_on_vacuum_mode_keeps_everything(partial_w3):
    s = PureState(dict(partial_w3.terms), modes=set(partial_w3.modes) | {"d9"})
    branch = detect_vacuum(s, "d9")
    assert branch.probability == pytest.approx(1.0, abs=1e-15)
    assert branch.kept_state == s


def test_detect_unknown_mode(partial_w3):
    with pytest.raises(UnknownMode):
        detect_vacuum(partial_w3, "nope")


def test_detect_empty_branch_raises(partial_w3):
    out = apply_vbs(partial_w3, VbsSetting("a1", "a2", "a3", 0.5))
    out = apply_vbs(out, VbsSetting("b1", "b2", "b3", 0.5))
    out = apply_vbs(out, VbsSetting("c1", "c2", "c3", 0.5))
    # every ket now holds its photon in a transmitted or reflected mode;
    # there is no branch where *some* mode is dark in all kets, so pick one
    # that is occupied in every ket of a single-ket state
    s = PureState({single("x"): 1.0})
    with pytest.raises(ZeroState):
        detect_vacuum(s, "x")


def test_detect_after_first_splitter(partial_w3):
    # optimal t1 turns the kept branch into (gamma, beta, gamma) amplitudes
    # with probability 2*gamma^2 + beta^2 = 0.7
    t1 = 0.2 / 0.5
    out = apply_vbs(partial_w3, VbsSetting("a1", "a2", "a3", t1))
    branch = detect_vacuum(out, "a3")
    assert branch.probability == pytest.approx(0.7, abs=1e-12)
    g = math.sqrt(0.2)
    assert branch.kept_state.terms[single("a2")] == pytest.approx(g, abs=1e-12)
    assert branch.kept_state.terms[single("b1")] == pytest.approx(math.sqrt(0.3), abs=1e-12)
    assert branch.kept_state.terms[single("c1")] == pytest.approx(g, abs=1e-12)


def test_detect_generic_transmittance(partial_w3):
    # kept probability at t1 = 0.4 is 0.5*0.4 + 0.3 + 0.2
    out = apply_vbs(partial_w3, VbsSetting("a1", "a2", "a3", 0.4))
    branch = detect_vacuum(out, "a3")
    assert branch.probability == pytest.approx(0.7, abs=1e-12)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_kept_plus_discarded_is_one(t, w):
    a = math.sqrt(w)
    b = math.sqrt(1 - w)
    s = PureState({single("a1"): a, single("b1"): b})
    out = apply_vbs(s, VbsSetting("a1", "a2", "a3", t))
    branch = detect_vacuum(out, "a3")
    # independent evaluation of the discarded branch
    discarded = {k: amp for k, amp in out.terms.items() if k.has("a3")}
    p_discard = sum(abs(x) ** 2 for x in discarded.values()) / norm_squared(out)
    assert branch.probability + p_discard == pytest.approx(1.0, abs=1e-12)
