"""Tests for the three optical elements."""
import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

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

from conftest import canonical

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
    # an output aimed at a registered vacuum mode collides too
    s = PureState({single("a"): 1.0}, modes=["a", "v"])
    with pytest.raises(ModeCollision):
        apply_vbs(s, VbsSetting("a", "c", "v", 0.5))
    # any two equal labels are rejected, an output named like the input too
    for labels in (("a", "c", "c"), ("a", "a", "c"), ("a", "c", "a")):
        with pytest.raises(ModeCollision):
            VbsSetting(*labels, 0.5)


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


def test_elements_after_a_pbs_find_its_photons(partial_pol_w3):
    # the split PBS moves the reference's V photon of a1 to a3 and rewrites
    # only the first term; the VBS and the detector behind it must still find
    # the H photon on a2 and the V photons on a3
    out = apply_pbs(partial_pol_w3, PbsWiring("a1", None, "a2", "a3"))
    dark_h = detect_vacuum(out, "a2")
    assert list(dark_h.kept_state.terms) == [pol_ket(("a3", V), ("b1", H), ("c1", V)),
                                             pol_ket(("a3", V), ("b1", V), ("c1", H))]
    assert dark_h.probability == pytest.approx(0.5, abs=1e-12)
    split = apply_vbs(out, VbsSetting("a2", "a4", "a5", 0.36))
    assert list(split.terms.values()) == pytest.approx(
        [0.6 * math.sqrt(0.5), 0.8 * math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)], abs=1e-15)
    assert pol_ket(("a5", H), ("b1", V), ("c1", V)) in split.terms
    assert detect_vacuum(split, "a3").probability == pytest.approx(0.5, abs=1e-12)
    # a VBS minting a1, the label the PBS consumed
    reused = VbsSetting("a2", "a1", "a9", 0.36)
    outcome = _outcome(apply_vbs, out, reused)
    assert not isinstance(outcome, type)
    assert outcome == _outcome(_split_every_ket, out, reused)


def test_counting_routed_terms_builds_no_ket(partial_pol_w3):
    # the term count is the count of differences: it needs no physical ket
    out = apply_pbs(partial_pol_w3, PbsWiring("a1", None, "a2", "a3"))
    assert len(out.terms) == 3
    assert out._terms is None
    assert out.terms == {pol_ket(("a2", H), ("b1", V), ("c1", V)): math.sqrt(0.5),
                         pol_ket(("a3", V), ("b1", H), ("c1", V)): math.sqrt(0.3),
                         pol_ket(("a3", V), ("b1", V), ("c1", H)): math.sqrt(0.2)}
    assert out._terms is not None
    with pytest.raises(TypeError):
        out.terms[pol_ket(("a2", H), ("b1", V), ("c1", V))] = 1.0


def test_repr_of_a_routed_state_names_the_physical_kets(partial_pol_w3):
    # H of a1 goes to a3 and V to a2, so sorting by the physical modes puts the
    # first stored term last; the terms view keeps term order
    out = apply_pbs(partial_pol_w3, PbsWiring("a1", None, "a3", "a2"))
    assert repr(out) == ("PureState((0.547723+0j)|V@a2 H@b1 V@c1> + "
                         "(0.447214+0j)|V@a2 V@b1 H@c1> + (0.707107+0j)|H@a3 V@b1 V@c1>)")
    assert repr(out.terms) == ("_Terms({|H@a3 V@b1 V@c1>: (0.7071067811865476+0j), "
                               "|V@a2 H@b1 V@c1>: (0.5477225575051661+0j), "
                               "|V@a2 V@b1 H@c1>: (0.4472135954999579+0j)})")


def test_elements_hash_no_ket(monkeypatch):
    # A VBS or a detector copies its input's columns and splices only the
    # terms it changes, and a PBS rewrites only the differences that name a
    # port, so no element hashes a ket.
    # Reading the physical terms does, once per ket.
    parties = [f"p{i}" for i in range(32)]
    amp = 1 / math.sqrt(len(parties))
    single_photon = PureState({single(m): amp for m in parties})
    polarization = PureState({pol_ket(*((m, H if m == hot else V) for m in parties)): amp
                              for hot in parties})
    routed = apply_pbs(polarization, PbsWiring("p0", None, "q0", "q1"))
    calls = []
    original = Ket.__hash__

    def counting(ket):
        calls.append(ket)
        return original(ket)

    monkeypatch.setattr(Ket, "__hash__", counting)
    kept = detect_vacuum(apply_vbs(single_photon, VbsSetting("p5", "r0", "r1", 0.25)), "r1")
    dark = detect_vacuum(apply_vbs(routed, VbsSetting("q0", "r0", "r1", 0.25)), "r1")
    merged = apply_pbs(dark.kept_state, PbsWiring("r0", "q1", "s0", "s1"))
    assert calls == []
    assert len(list(kept.kept_state.terms)) == len(calls) == 32
    assert len(list(merged.terms)) == len(calls) - 32 == 32


def test_a_pbs_writes_no_reference_but_its_own(partial_pol_w3):
    # a PBS moves the reference's photons in a copy of its input's reference;
    # a detector hands its input's reference on, so a write that skipped the
    # copy would reach the detector's input and output both
    state = PureState(dict(partial_pol_w3.terms), modes={"a1", "b1", "c1", "z9"})
    kept = detect_vacuum(state, "z9").kept_state
    assert kept._ref is state._ref
    before = copy.deepcopy(state._ref)
    out = apply_pbs(kept, PbsWiring("a1", None, "a2", "a3"))
    assert state._ref == before == {"a1": V, "b1": V, "c1": V}
    assert out._ref == {"a3": V, "b1": V, "c1": V}


@pytest.mark.parametrize("in_a, in_b", [("zz", None), ("a1", "zz")])
def test_pbs_unknown_input(in_a, in_b):
    s = PureState({pol_ket(("a1", H)): 1.0})
    with pytest.raises(UnknownMode):
        apply_pbs(s, PbsWiring(in_a, in_b, "x", "y"))


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
    # a bystander in another ket: routing onto it would merge the two kets
    # and lose norm (1.0 -> 0.04), so the registered output is refused
    s = PureState({pol_ket(("a", H)): 0.6, pol_ket(("c", H)): -0.8}, modes=["a", "c"])
    with pytest.raises(ModeCollision):
        apply_pbs(s, PbsWiring("a", None, "c", "d"))


def _reference_ports(state, consumed, minted):
    """Reference port rule: the registry after the element, or the error."""
    if not set(consumed) <= state.modes:
        raise UnknownMode("reference input unregistered")
    if set(minted) & state.modes:
        raise ModeCollision("reference output registered")
    return (set(state.modes) | set(minted)) - set(consumed)


def _route_every_photon(state, w):
    """Reference PBS: check the ports, then rebuild each ket by routing all
    of its photons."""
    modes = _reference_ports(state, {w.in_a, w.in_b} - {None}, (w.out_c, w.out_d))
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
        terms[Ket(routed)] = amp
    return PureState(terms, modes=modes)


POOL = tuple(f"m{i}" for i in range(7))
NEW = ("n0", "n1", "n2")  # never registered
UNREGISTERED = ("z0", "z1")  # never registered, drawn as inputs


@st.composite
def pbs_cases(draw, tags=(H, V)):
    size = draw(st.integers(1, 4))
    kets = draw(st.lists(
        st.lists(st.sampled_from(POOL), min_size=size, max_size=size, unique=True).flatmap(
            lambda modes: st.tuples(*(st.tuples(st.just(m), st.sampled_from(tags))
                                      for m in modes))),
        min_size=1, max_size=5))
    terms = {}
    for photons in kets:
        terms[Ket(photons)] = 1.0
    norm = math.sqrt(len(terms))
    # The occupied modes and a drawn share of the vacuum ones are registered.
    # Each input is a registered mode or, when the drawn integer is 2 or the
    # registry has no second mode, a label that is never registered, so the
    # consume rule is met by both PBS inputs and by the VBS input. Outputs are
    # two other labels of POOL and NEW, so each may name a registered mode or
    # a new one.
    vacuum = draw(st.sets(st.sampled_from(POOL)))
    modes = vacuum.union(*(k.modes for k in terms))
    state = PureState({k: a / norm for k, a in terms.items()}, modes=modes)
    registered = draw(st.permutations(sorted(modes))) + ["z1"]
    ins = [m if draw(st.integers(0, 2)) < 2 else z for m, z in zip(registered, UNREGISTERED)]
    in_b = ins[1] if draw(st.booleans()) else None
    outs = draw(st.permutations([m for m in POOL + NEW if m not in (ins[0], in_b)]))
    return state, PbsWiring(ins[0], in_b, outs[0], outs[1])


# Elements derive their output from the validated input state; the references
# build theirs through the public constructor, which checks every term.
def _outcome(element, state, wiring):
    """Output terms in order, registry, squared norm (exact), the derived
    facts and whether each difference is canonical, or the type of the error
    raised."""
    try:
        out = element(state, wiring)
    except ValueError as exc:
        return type(exc)
    terms = list(out.terms.items())
    return (terms, out.modes, norm_squared(out), out.photon_count, out.uses_polarization,
            canonical(out))


@given(pbs_cases())
def test_pbs_matches_routing_every_photon(case):
    # Inputs may be unregistered and outputs registered, so both port errors
    # occur alongside clean routings, which keep the norm bits.
    state, wiring = case
    outcome = _outcome(apply_pbs, state, wiring)
    assert outcome == _outcome(_route_every_photon, state, wiring)
    if not isinstance(outcome, type):
        assert outcome[2] == norm_squared(state)


def _split_every_ket(state, s):
    """Reference VBS: check the ports, then rebuild each ket from its photon list."""
    split = (math.sqrt(s.transmittance), math.sqrt(1.0 - s.transmittance))
    outs = (s.out_transmit, s.out_reflect)
    modes = _reference_ports(state, (s.input,), outs)
    terms = {}
    for ket, amp in state.terms.items():
        photons = dict(ket.photons)
        tag = photons.pop(s.input, None)
        if tag is None:
            terms[ket] = amp
            continue
        for out, factor in zip(outs, split):
            terms[Ket(tuple(photons.items()) + ((out, tag),))] = amp * factor
    return PureState(terms, modes=modes)


ANY_CONVENTION = st.sampled_from([(H, V), (NONE,)]).flatmap(pbs_cases)


@given(ANY_CONVENTION, st.floats(0.0, 1.0))
def test_vbs_matches_splitting_every_ket(case, t):
    # The PBS draw's labels: an input that may be unregistered, and outputs
    # that may be registered or new.
    state, w = case
    setting = VbsSetting(w.in_a, w.out_c, w.out_d, t)
    assert _outcome(apply_vbs, state, setting) == _outcome(_split_every_ket, state, setting)


def _keep_dark_terms(state, mode):
    """Reference detector: the terms with no photon in ``mode``, rebuilt."""
    if mode not in state.modes:
        raise UnknownMode(mode)
    dark = {ket: amp for ket, amp in state.terms.items() if mode not in ket.modes}
    return PureState(dark, modes=state.modes)


def _kept_state(state, mode):
    return detect_vacuum(state, mode).kept_state


@given(ANY_CONVENTION, st.sampled_from(POOL + ("zz",)))
def test_detect_matches_rebuilding_dark_terms(case, mode):
    # an empty dark branch is a ZeroState for the detector and the constructor
    state, _ = case
    assert _outcome(_kept_state, state, mode) == _outcome(_keep_dark_terms, state, mode)


CHAIN_LABELS = POOL + NEW + tuple(f"n{i}" for i in range(3, 9))


@st.composite
def chain_steps(draw, state):
    """One element for ``state``, with the reference model that checks it.

    Inputs are mostly registered modes and outputs mostly unregistered ones,
    so most chains run several elements. The labels come from a few, so an
    output often names a mode an earlier element consumed.
    """
    registered = sorted(state.modes)
    free = sorted(set(CHAIN_LABELS) - state.modes)

    def pick(modes, fallback, taken):
        # hypothesis leans to 0, so 0..8 pick ``modes`` and 9 the fallback
        options = [m for m in (modes if draw(st.integers(0, 9)) < 9 else fallback)
                   if m not in taken]
        return draw(st.sampled_from(options or [m for m in CHAIN_LABELS + UNREGISTERED
                                                if m not in taken]))

    kind = draw(st.sampled_from(["split", "merge", "vbs", "detect"]))
    if kind == "detect":
        return _kept_state, pick(registered, UNREGISTERED, ()), _keep_dark_terms
    labels = [pick(registered, UNREGISTERED, ())]
    if kind == "merge":
        labels.append(pick(registered, UNREGISTERED, labels))
    for _ in range(2):
        labels.append(pick(free, registered, labels))
    if kind == "vbs":
        return apply_vbs, VbsSetting(*labels, draw(st.floats(0.0, 1.0))), _split_every_ket
    if kind == "split":
        labels.insert(1, None)
    return apply_pbs, PbsWiring(*labels), _route_every_photon


def _referenced_states():
    """States whose reference holds modes the elements act on."""
    kets = [pol_ket(("b1", H), ("c1", V)), pol_ket(("a1", V), ("b1", V)),
            pol_ket(("a1", V), ("c1", H))]
    # a1's V and b1's H are each held by two of three kets, and the one ket
    # holding both, the one a z1 detector drops, would send both to one output
    # of PbsWiring("a1", "b1", ...); the kept terms do not
    crossed = PureState({pol_ket(("a1", V), ("b1", H), ("z1", V)): 0.6,
                         pol_ket(("a1", V), ("b1", V), ("y1", V)): 0.48,
                         pol_ket(("a1", H), ("b1", H), ("y1", V)): 0.64})
    return {
        "first-ket-minority": PureState(dict(zip(kets, (0.6, -0.48, 0.64j)))),
        "one-term": PureState({pol_ket(("a1", H), ("b1", V)): 0.6}, modes={"a1", "b1", "c1"}),
        "one-untagged-term": PureState({single("a1"): 1.0}, modes={"a1", "b1"}),
        "crossed": detect_vacuum(crossed, "z1").kept_state,
    }


@pytest.mark.parametrize("name", sorted(_referenced_states()))
def test_elements_on_reference_modes_match_the_references(name):
    # every element on every registered mode, most of them held by the
    # reference: a VBS or a detector drops the mode from it, a PBS moves its
    # photons, or checks each term's when the reference's own would collide
    state = _referenced_states()[name]
    assert state._ref
    for mode in sorted(state.modes):
        setting = VbsSetting(mode, "n0", "n1", 0.36)
        assert _outcome(apply_vbs, state, setting) == _outcome(_split_every_ket, state, setting)
        assert _outcome(_kept_state, state, mode) == _outcome(_keep_dark_terms, state, mode)
        for other in [None, *sorted(state.modes - {mode})] if state.uses_polarization else ():
            wiring = PbsWiring(mode, other, "n0", "n1")
            assert (_outcome(apply_pbs, state, wiring)
                    == _outcome(_route_every_photon, state, wiring))


def test_a_pbs_checks_each_term_when_the_reference_would_collide():
    state = _referenced_states()["crossed"]
    assert state._ref == {"a1": V, "b1": H, "y1": V}
    out = apply_pbs(state, PbsWiring("a1", "b1", "c1", "d1"))
    assert out.terms == {pol_ket(("d1", V), ("c1", V), ("y1", V)): 0.48,
                         pol_ket(("c1", H), ("d1", H), ("y1", V)): 0.64}


def _snapshot(state):
    """Terms in order, registry and squared norm (exact)."""
    return list(state.terms.items()), state.modes, norm_squared(state)


@settings(max_examples=300)
@given(pbs_cases(), st.integers(2, 6), st.data())
def test_chained_elements_match_references(case, length, data):
    # Every state carries a reference, which a PBS moves and the next elements
    # read; the reference models rebuild every ket from the previous output's
    # public terms. Each step must agree on the terms in order, the registry,
    # the norm bits, canonical differences and the error, so a stale or
    # aliased reference shows, also when an output reuses a consumed label.
    # An element never changes its input: the input reads the same after it
    # ran, and the element run again on it gives the next step's state.
    state, _ = case
    for _ in range(length):
        element, setting, reference = data.draw(chain_steps(state))
        before = _snapshot(state)
        outcome = _outcome(element, state, setting)
        assert _snapshot(state) == before
        assert outcome == _outcome(reference, state, setting)
        if isinstance(outcome, type):
            return
        state = element(state, setting)


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
