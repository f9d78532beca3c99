"""Tests for state builders, the transmittance planner, and both drivers."""
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wecp import protocols
from wecp.optics import PbsWiring, VbsSetting, apply_pbs, apply_vbs, detect_vacuum
from wecp.protocols import (
    BadCoefficients,
    WCoefficients,
    analytic_total_probability,
    default_party_labels,
    run_polarization_ecp,
    run_single_photon_ecp,
    target_w_state,
    w_state_polarization,
    w_state_single_photon,
)
from wecp.state import (
    DEFAULT_PRUNE_EPS,
    Ket,
    Polarization,
    fidelity,
    norm_squared,
)

EXAMPLE = (0.5, 0.3, 0.2)


def coeffs(*moduli2, phases=None):
    return WCoefficients.from_squared(moduli2, phases)


def random_coeffs(rng, n):
    c2 = rng.dirichlet(np.ones(n))
    while min(c2) < 1e-6:
        c2 = rng.dirichlet(np.ones(n))
    return WCoefficients.from_squared(tuple(c2))


# --- WCoefficients -------------------------------------------------------

def test_coefficients_validation():
    with pytest.raises(BadCoefficients):
        coeffs(1.0, 0.0)
    with pytest.raises(BadCoefficients):
        coeffs(0.5, 0.3)
    with pytest.raises(BadCoefficients):
        WCoefficients((1.0,))
    with pytest.raises(BadCoefficients):
        coeffs(0.5, 0.3, 0.2, phases=[0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coefficients_reject_non_finite(bad):
    with pytest.raises(BadCoefficients):
        coeffs(bad, 0.5, 0.5)
    with pytest.raises(BadCoefficients):
        coeffs(0.5, 0.5, phases=[bad, 0.0])
    with pytest.raises(BadCoefficients):
        WCoefficients((complex(bad, 0.0), 0.6, 0.8))
    with pytest.raises(BadCoefficients):
        WCoefficients((complex(0.6, bad), 0.8))


@pytest.mark.parametrize("driver", [run_single_photon_ecp, run_polarization_ecp])
@given(ulps=st.integers(0, 64),
       weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
       with_phases=st.booleans(), data=st.data())
def test_weight_near_pruning_threshold_is_rejected_or_answered(
        driver, ulps, weights, with_phases, data):
    # no party may be accepted and then lose its term to pruning mid-run
    m = DEFAULT_PRUNE_EPS
    for _ in range(ulps):
        m = math.nextafter(m, 1.0)
    total = sum(weights)
    m2 = (m, *((1.0 - m) * w / total for w in weights))
    phases = [data.draw(st.floats(0.0, 6.3)) for _ in m2] if with_phases else None
    try:
        c = coeffs(*m2, phases=phases)
    except BadCoefficients:
        return
    report = driver(c)
    assert report.total_prob == pytest.approx(analytic_total_probability(c), abs=1e-10)
    assert report.fidelity_to_target > 1.0 - 1e-10


# --- state builders ------------------------------------------------------

def test_single_photon_w_state_uniform():
    c = coeffs(1 / 3, 1 / 3, 1 / 3)
    s = w_state_single_photon(c)
    assert fidelity(s, target_w_state(c)) == pytest.approx(1.0, abs=1e-12)


def test_single_photon_w_state_shape():
    s = w_state_single_photon(coeffs(*EXAMPLE))
    assert len(s.terms) == 3
    assert norm_squared(s) == pytest.approx(1.0, abs=1e-12)
    assert s.photon_count == 1
    assert not s.uses_polarization


def test_polarization_w_state_two_parties():
    s = w_state_polarization(coeffs(0.6, 0.4))
    assert len(s.terms) == 2
    assert norm_squared(s) == pytest.approx(1.0, abs=1e-12)
    assert s.photon_count == 2


def test_polarization_w_state_one_h_per_ket():
    s = w_state_polarization(coeffs(*EXAMPLE))
    assert len(s.terms) == 3
    for ket in s.terms:
        tags = [pol for _, pol in ket.photons]
        assert tags.count(Polarization.H) == 1
        assert tags.count(Polarization.V) == len(tags) - 1


def _ket_photon_by_photon(labels, hot, polarization):
    """Party ``hot``'s ket, built from a photon list appended one party at a time."""
    if not polarization:
        return Ket(((labels[hot], Polarization.NONE),))
    photons = []
    for j, label in enumerate(labels):
        photons.append((label, Polarization.H if j == hot else Polarization.V))
    return Ket(photons)


def test_builders_match_kets_built_photon_by_photon():
    # Parties past the 26th carry two-letter labels. Each builder's kets, in
    # term order, equal the reference kets and hash equal to them.
    rng = np.random.default_rng(9)
    for n in range(2, 41):
        c = random_coeffs(rng, n)
        labels = default_party_labels(n)
        for polarization in (False, True):
            build = w_state_polarization if polarization else w_state_single_photon
            state = build(c)
            target = target_w_state(c, polarization=polarization)
            assert list(state.terms.values()) == list(c.amps)
            refs = [_ket_photon_by_photon(labels, i, polarization) for i in range(n)]
            for kets in (list(state.terms), list(target.terms)):
                assert kets == refs
                for ket, ref in zip(kets, refs):
                    assert hash(ket) == hash(ref)


def test_party_labels_deterministic():
    assert default_party_labels(3) == ("a1", "b1", "c1")
    labels = default_party_labels(30)
    assert len(set(labels)) == 30


# --- planner -------------------------------------------------------------

def test_plan_example_instance():
    plan = run_single_photon_ecp(coeffs(*EXAMPLE))
    assert [(s.party, s.transmittance) for s in plan.steps] == [
        (0, pytest.approx(0.4, abs=1e-12)),
        (1, pytest.approx(0.2 / 0.3, abs=1e-12)),
    ]
    assert plan.steps[0].vbs.input == "a1"
    assert plan.steps[0].detector == plan.steps[0].vbs.out_reflect


def test_plan_equal_coefficients_is_empty():
    assert run_single_photon_ecp(coeffs(1 / 3, 1 / 3, 1 / 3)).steps == ()


def test_plan_skips_ties_with_minimum():
    plan = run_single_photon_ecp(coeffs(0.5, 0.25, 0.25))
    assert [s.party for s in plan.steps] == [0]


@given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
def test_plan_matches_ratio_rule(weights):
    total = sum(weights)
    m2 = tuple(w / total for w in weights)
    plan = run_single_photon_ecp(coeffs(*m2))
    mn = min(m2)
    for step in plan.steps:
        assert step.transmittance == pytest.approx(mn / m2[step.party], abs=1e-12)


def test_plan_against_grid_search_oracle():
    """Independent oracle: brute-force (t1, t2) at 1e-3 resolution.

    The output of the two-splitter circuit has amplitudes
    (a1*sqrt(t1), a2*sqrt(t2), a3) and succeeds with probability
    sum(|a_i|^2 t_i). Maximizing that over the grid subject to a uniform
    output (fidelity within 1e-6 of 1) must land in the feasibility
    neighborhood of the planner's point, at the planner's probability.
    """
    m2 = np.array(EXAMPLE)
    grid = np.arange(1e-3, 1.0 + 1e-9, 1e-3)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    prob = m2[0] * t1 + m2[1] * t2 + m2[2]
    amps = np.stack([np.sqrt(m2[0] * t1), np.sqrt(m2[1] * t2),
                     np.full_like(t1, math.sqrt(m2[2]))])
    fid = amps.sum(axis=0) ** 2 / (3.0 * prob)
    feasible = fid > 1.0 - 1e-6
    assert feasible.any()
    best = prob[feasible].max()
    i, j = np.unravel_index(np.where(feasible.ravel(), prob.ravel(), -1.0).argmax(),
                            prob.shape)

    analytic = analytic_total_probability(coeffs(*EXAMPLE))
    plan = run_single_photon_ecp(coeffs(*EXAMPLE))
    planned = {s.party: s.transmittance for s in plan.steps}
    # constrained brute-force optimum agrees with the planner's probability;
    # the fidelity band admits probability excursions of order 3e-3 here
    assert best == pytest.approx(analytic, abs=3e-3)
    assert best >= analytic - 1e-9
    # argmax sits inside the feasibility band around the planner's point
    assert abs(grid[i] - planned[0]) <= 6e-3
    assert abs(grid[j] - planned[1]) <= 6e-3
    # the planner's exact point is itself feasible and attains the optimum
    p_plan = m2[0] * planned[0] + m2[1] * planned[1] + m2[2]
    assert p_plan == pytest.approx(analytic, abs=1e-12)


# --- analytic law ---------------------------------------------------------

def test_analytic_example_values():
    assert analytic_total_probability(coeffs(*EXAMPLE)) == pytest.approx(0.6, abs=1e-12)
    assert analytic_total_probability(coeffs(0.25, 0.25, 0.25, 0.25)) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8))
def test_analytic_is_n_times_smallest(weights):
    total = sum(weights)
    m2 = tuple(w / total for w in weights)
    assert analytic_total_probability(coeffs(*m2)) == pytest.approx(len(m2) * min(m2), abs=1e-12)


# --- single-photon driver --------------------------------------------------

def test_single_photon_example_run():
    # frozen from the hand expansion of the two-step circuit:
    # kept probabilities 0.7 and 6/7, total 3*0.2
    report = run_single_photon_ecp(coeffs(*EXAMPLE))
    assert report.step_probs[0] == pytest.approx(0.7, abs=1e-12)
    assert report.step_probs[1] == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert report.total_prob == pytest.approx(0.6, abs=1e-12)
    assert report.fidelity_to_target >= 1.0 - 1e-10
    # the README's numbers, to the last bit
    assert report.step_probs == (0.7, 0.8571428571428572)
    assert report.total_prob == 0.6 == analytic_total_probability(coeffs(*EXAMPLE))


def test_single_photon_final_state_modes():
    report = run_single_photon_ecp(coeffs(*EXAMPLE))
    occupied = {m for ket in report.final_state.terms for m in ket.modes}
    assert occupied == {"a2", "b2", "c1"}
    assert norm_squared(report.final_state) == pytest.approx(report.total_prob, abs=1e-12)


def test_single_photon_equal_coefficients():
    report = run_single_photon_ecp(coeffs(1 / 3, 1 / 3, 1 / 3))
    assert report.step_probs == ()
    assert report.total_prob == pytest.approx(1.0, abs=1e-12)
    assert report.fidelity_to_target >= 1.0 - 1e-12


def test_single_photon_five_parties():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_coeffs(rng, 5)
        report = run_single_photon_ecp(c)
        assert report.total_prob == pytest.approx(
            analytic_total_probability(c), abs=1e-10)
        assert report.fidelity_to_target >= 1.0 - 1e-10


def test_single_photon_respects_phases():
    c = coeffs(*EXAMPLE, phases=[math.pi / 2, 0.0, 0.0])
    report = run_single_photon_ecp(c)
    assert report.fidelity_to_target >= 1.0 - 1e-10
    amps = {next(iter(k.modes)): a for k, a in report.final_state.terms.items()}
    assert amps["a2"].imag == pytest.approx(math.sqrt(0.2), abs=1e-12)
    assert amps["a2"].real == pytest.approx(0.0, abs=1e-12)


def test_target_w_state_carries_phases():
    c = coeffs(0.5, 0.3, 0.2, phases=[math.pi / 2, 0.0, 0.0])
    target = target_w_state(c, ["a1", "b1", "c1"])
    amps = {next(iter(k.modes)): a for k, a in target.terms.items()}
    assert amps["a1"] == pytest.approx(1j / math.sqrt(3), abs=1e-12)
    assert amps["b1"] == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_maximal_input_equals_its_target():
    c = coeffs(0.25, 0.25, 0.25, 0.25)
    assert fidelity(w_state_single_photon(c), target_w_state(c)) == pytest.approx(1.0, abs=1e-12)


# --- polarization driver ----------------------------------------------------

def test_polarization_example_run():
    report = run_polarization_ecp(coeffs(*EXAMPLE))
    assert report.total_prob == pytest.approx(0.6, abs=1e-12)
    assert report.fidelity_to_target >= 1.0 - 1e-10
    assert report.total_prob == 0.6 == analytic_total_probability(coeffs(*EXAMPLE))
    occupied = {m for ket in report.final_state.terms for m in ket.modes}
    assert occupied == {"a6", "b6", "c1"}  # each stepped party ends merged


def test_polarization_equal_coefficients():
    report = run_polarization_ecp(coeffs(1 / 3, 1 / 3, 1 / 3))
    assert report.total_prob == pytest.approx(1.0, abs=1e-12)
    assert report.step_probs == ()


def test_polarization_first_step_amplitudes():
    # after split + splitter + dark detector with a generic t1, the three
    # amplitudes are alpha*sqrt(t1), beta, gamma; H sits on the transmitted
    # mode and both V terms share the reflected-side path
    t1 = 0.37
    a, b, g = (math.sqrt(x) for x in EXAMPLE)
    state = w_state_polarization(coeffs(*EXAMPLE))
    state = apply_pbs(state, PbsWiring("a1", None, "a2", "a3"))
    state = apply_vbs(state, VbsSetting("a2", "a4", "a5", t1))
    branch = detect_vacuum(state, "a5")
    amps = sorted(abs(x) for x in branch.kept_state.terms.values())
    assert amps == pytest.approx(sorted([a * math.sqrt(t1), b, g]), abs=1e-12)
    assert branch.probability == pytest.approx(0.5 * t1 + 0.3 + 0.2, abs=1e-12)


def test_polarization_respects_phases():
    c = coeffs(*EXAMPLE, phases=[0.3, -1.2, 2.0])
    report = run_polarization_ecp(c)
    assert report.fidelity_to_target >= 1.0 - 1e-10


def _state_facts(state):
    return (list(state.terms.items()), state.modes, norm_squared(state).hex(),
            state.photon_count, state.uses_polarization)


@pytest.mark.parametrize("driver", [run_single_photon_ecp, run_polarization_ecp])
def test_final_state_and_report_survive_copy_and_pickle(driver):
    # a copy rebuilds through the validating constructor: same terms in the
    # same order, registry, norm bits, photon count and convention
    report = driver(WCoefficients.from_squared((0.5, 0.3, 0.2)))
    state = report.final_state
    for clone in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert _state_facts(clone) == _state_facts(state)
    for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert clone == report
        assert _state_facts(clone.final_state) == _state_facts(state)


# --- cross-cutting properties -----------------------------------------------

def test_protocol_equivalence_on_example():
    r1 = run_single_photon_ecp(coeffs(*EXAMPLE))
    r2 = run_polarization_ecp(coeffs(*EXAMPLE))
    assert r1.step_probs == pytest.approx(r2.step_probs, abs=1e-12)
    assert r1.total_prob == pytest.approx(r2.total_prob, abs=1e-12)


def test_step_probabilities_factor_total():
    rng = np.random.default_rng(5)
    for _ in range(25):
        c = random_coeffs(rng, int(rng.integers(2, 7)))
        report = run_single_photon_ecp(c)
        assert report.total_prob == pytest.approx(
            math.prod(report.step_probs), abs=1e-12)


def test_three_party_step_factors_match_closed_forms():
    # for sorted moduli alpha > beta > gamma the two kept probabilities are
    # 2*gamma^2 + beta^2 and 3*gamma^2 / (2*gamma^2 + beta^2)
    rng = np.random.default_rng(17)
    for _ in range(50):
        m2 = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        if m2[2] < 1e-3 or m2[0] - m2[1] < 1e-3 or m2[1] - m2[2] < 1e-3:
            continue
        a2, b2, g2 = (float(x) for x in m2)
        report = run_single_photon_ecp(coeffs(a2, b2, g2))
        p1 = 2 * g2 + b2
        assert report.step_probs[0] == pytest.approx(p1, abs=1e-12)
        assert report.step_probs[1] == pytest.approx(3 * g2 / p1, abs=1e-12)


@given(st.permutations([0.4, 0.35, 0.15, 0.1]))
def test_total_probability_order_invariant(perm):
    base = run_single_photon_ecp(coeffs(0.4, 0.35, 0.15, 0.1)).total_prob
    report = run_single_photon_ecp(coeffs(*perm))
    assert report.total_prob == pytest.approx(base, abs=1e-12)


def test_permuted_coefficients_permute_the_plan():
    plan = run_single_photon_ecp(coeffs(0.2, 0.5, 0.3))
    assert [s.party for s in plan.steps] == [1, 2]
    assert plan.steps[0].vbs.input == "b1"


SHARED_STEMS = ("x2", "x1", "y")


@pytest.mark.parametrize("driver", [run_single_photon_ecp, run_polarization_ecp])
@pytest.mark.parametrize("shared_stems", [False, True])
@given(data=st.data())
def test_report_steps_are_the_executed_plan(driver, shared_stems, data):
    n = len(SHARED_STEMS) if shared_stems else data.draw(st.integers(2, 6))
    weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    c = coeffs(*(w / total for w in weights))
    labels = SHARED_STEMS if shared_stems else default_party_labels(c.n)
    report = driver(c, labels)
    plan = run_single_photon_ecp(c, labels)
    assert plan.steps == run_single_photon_ecp(c, labels).steps
    assert [(s.party, s.transmittance) for s in report.steps] == [
        (s.party, s.transmittance) for s in plan.steps]
    assert len(report.steps) == len(report.step_probs)

    # every VBS output is a new label, used once
    outputs = [m for s in report.steps for m in (s.vbs.out_transmit, s.vbs.out_reflect)]
    assert len(set(outputs)) == len(outputs)
    assert not set(outputs) & set(labels)
    assert all(s.detector == s.vbs.out_reflect for s in report.steps)

    # no photon ends on a mode that a step consumed or post-selected dark
    consumed = {m for s in report.steps for m in (labels[s.party], s.vbs.input, s.detector)}
    occupied = {m for ket in report.final_state.terms for m in ket.modes}
    assert not consumed & occupied


def test_shared_stem_labels_never_reuse_a_consumed_mode():
    report = run_single_photon_ecp(coeffs(*EXAMPLE), SHARED_STEMS)
    assert [(s.vbs.input, s.vbs.out_transmit, s.detector) for s in report.steps] == [
        ("x2", "x3", "x4"), ("x1", "x5", "x6")]
    occupied = {m for ket in report.final_state.terms for m in ket.modes}
    assert occupied == {"x3", "x5", "y"}


def test_custom_labels():
    c = coeffs(*EXAMPLE)
    report = run_single_photon_ecp(c, labels=("alice", "bob", "carol"))
    assert report.total_prob == pytest.approx(0.6, abs=1e-12)
    occupied = {m for ket in report.final_state.terms for m in ket.modes}
    assert occupied == {"alice1", "bob1", "carol"}


@pytest.mark.parametrize("labels, minted", [
    # an all-digit or empty base is its own stem: "7" mints 71, 72, ...
    (("7", "", "x"), [("71", "73", "74"), ("1", "3", "4")]),
    (("a1", "a2", "a5"), [("a3", "a6", "a7"), ("a10", "a12", "a13")]),
])
def test_polarization_mints_the_first_free_labels(labels, minted):
    # each step mints after the labels its party already took, skipping taken ones
    report = run_polarization_ecp(coeffs(*EXAMPLE), labels)
    assert [(s.vbs.input, s.vbs.out_transmit, s.vbs.out_reflect) for s in report.steps] == minted


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        run_single_photon_ecp(coeffs(*EXAMPLE), labels=("x", "x", "y"))
    with pytest.raises(ValueError, match="need 3 labels"):
        run_polarization_ecp(coeffs(*EXAMPLE), labels=("x", "y"))


def test_transmittance_overrides_reach_suboptimal_points():
    c = coeffs(*EXAMPLE)
    # optimal settings via overrides reproduce the planned run exactly
    planned = {s.party: s.transmittance for s in run_single_photon_ecp(c).steps}
    report = run_single_photon_ecp(c, transmittances=planned)
    assert report.total_prob == pytest.approx(0.6, abs=1e-12)
    assert report.fidelity_to_target >= 1.0 - 1e-10
    # deliberately wrong settings keep more probability but miss the target
    report = run_single_photon_ecp(c, transmittances={0: 0.9, 1: 0.9})
    assert report.total_prob > 0.6
    assert report.fidelity_to_target < 1.0 - 1e-6


def test_overrides_work_for_polarization_driver():
    c = coeffs(*EXAMPLE)
    r1 = run_single_photon_ecp(c, transmittances={0: 0.7, 1: 0.5})
    r2 = run_polarization_ecp(c, transmittances={0: 0.7, 1: 0.5})
    assert r1.step_probs == pytest.approx(r2.step_probs, abs=1e-12)
    assert r1.fidelity_to_target == pytest.approx(r2.fidelity_to_target, abs=1e-12)


@st.composite
def override_cases(draw):
    """Coefficients with phases, and overrides t_i in [1e-3, 1] on a random subset."""
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))
    total = sum(weights)
    c = coeffs(*(w / total for w in weights), phases=phases)
    subset = draw(st.sets(st.integers(0, n - 1)))  # may include the smallest party
    overrides = {i: draw(st.floats(1e-3, 1.0)) for i in sorted(subset)}
    return c, overrides


@given(override_cases())
def test_overrides_obey_closed_form_identities(case):
    # With kept weights w_i = m_i t_i (t_i = 1 off the subset), the kept branch
    # is sum_i sqrt(w_i) e^(i phi_i) |i>, so its norm and its overlap with the
    # phased target follow without simulating anything.
    c, overrides = case
    w = [m * overrides.get(i, 1.0) for i, m in enumerate(c.moduli_squared)]
    single = run_single_photon_ecp(c, transmittances=overrides)
    pol = run_polarization_ecp(c, transmittances=overrides)
    for report in (single, pol):
        assert report.total_prob == pytest.approx(sum(w), rel=1e-12, abs=0.0)
        expected_fid = sum(map(math.sqrt, w)) ** 2 / (c.n * sum(w))
        assert report.fidelity_to_target == pytest.approx(expected_fid, abs=1e-12)
    assert single.step_probs == pytest.approx(pol.step_probs, abs=1e-14)
    assert single.final_state.photon_count == 1
    assert pol.final_state.photon_count == c.n


@pytest.mark.parametrize("driver", [run_single_photon_ecp, run_polarization_ecp])
@pytest.mark.parametrize("overrides", [{3: 0.4, -1: 0.5}, {0: 0.4, 3: 0.5}, {-1: 0.5}])
def test_override_keys_naming_no_party_are_rejected(driver, overrides):
    # a key outside range(N) used to be dropped, so the run skipped that step
    with pytest.raises(ValueError) as info:
        driver(coeffs(*EXAMPLE), transmittances=overrides)
    assert str([k for k in overrides if k not in range(3)]) in str(info.value)


def _photon_numbers(state):
    return {len(ket.modes) for ket in state.terms}


@given(override_cases(), st.booleans())
def test_every_run_keeps_the_abstracts_resource_claims(case, optimal):
    # No auxiliary photon: each element sees and leaves exactly the input's 1
    # or N photons. The kept state holds no photon where a detector sat or a
    # VBS consumed its input, and the concentrated state stays on N modes.
    c, overrides = case
    if optimal:
        overrides = None
    for driver, photons, per_step in ((run_single_photon_ecp, 1, 2), (run_polarization_ecp, c.n, 4)):
        seen = []

        def counted(element):
            def wrapper(state, setting):
                out = element(state, setting)
                kept = getattr(out, "kept_state", out)
                seen.append((_photon_numbers(state), _photon_numbers(kept), kept.photon_count))
                return out
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for name in ("apply_vbs", "apply_pbs", "detect_vacuum"):
                mp.setattr(protocols, name, counted(getattr(protocols, name)))
            report = driver(c, transmittances=overrides)
        assert len(seen) == per_step * len(report.steps)
        assert all(entry == ({photons}, {photons}, photons) for entry in seen)
        dark = {m for step in report.steps for m in (step.detector, step.vbs.input)}
        occupied = {m for ket in report.final_state.terms for m in ket.modes}
        assert not dark & occupied
        assert len(occupied) == c.n


@st.composite
def near_optimal_cases(draw):
    """Overrides t_i near the optimal m_min/m_i on a random subset S of parties.

    Parties outside S keep t = 1, so their weights are drawn within 1e-6 of
    the smallest; S may include the smallest party itself.
    """
    n = draw(st.integers(2, 8))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    subset = draw(st.sets(st.integers(0, n - 1)))
    low = min(raw)
    raw = [w if i in subset else low * (1.0 + draw(st.floats(0.0, 1e-6)))
           for i, w in enumerate(raw)]
    total = sum(raw)
    c = coeffs(*(w / total for w in raw))
    m2 = c.moduli_squared
    overrides = {}
    for i in sorted(subset):
        offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0))
        overrides[i] = min(1.0, min(m2) / m2[i] * (1.0 + offset))
    return c, overrides


@given(near_optimal_cases())
def test_exact_optimality_bound_at_any_n(case):
    # F >= 1 - e implies total_prob <= N m_min / ((1 - e)(1 - r)^2) with
    # r = sqrt((N - 1) e / (1 - e)), tight at the optimum. e is padded by
    # 1e-15 for the rounding of 1 - F.
    c, overrides = case
    m_min = min(c.moduli_squared)
    for driver in (run_single_photon_ecp, run_polarization_ecp):
        report = driver(c, transmittances=overrides)
        e = 1.0 - report.fidelity_to_target + 1e-15
        r = math.sqrt((c.n - 1) * e / (1.0 - e))
        if r < 1.0:
            assert report.total_prob <= c.n * m_min / ((1.0 - e) * (1.0 - r) ** 2)


def test_oracle_equivalence_batch():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        c = random_coeffs(rng, n)
        analytic = analytic_total_probability(c)
        for driver in (run_single_photon_ecp, run_polarization_ecp):
            report = driver(c)
            assert abs(report.total_prob - analytic) < 1e-10
            assert report.fidelity_to_target > 1.0 - 1e-10
