"""Tests for the iterative-baseline closed forms and the four-curve sweep."""
import math
from fractions import Fraction

import numpy as np
import pytest

from wecp import comparison
from wecp.comparison import (
    ALPHA_HI,
    ALPHA_LO,
    DomainError,
    PriorEcpParams,
    default_alpha_grid,
    prior_step1_prob,
    prior_step2_prob,
    prior_total_prob,
    sweep_point,
)

THIRD = 1.0 / 3.0
EQUAL = (math.sqrt(THIRD),) * 3


def params(a2, b2, g2, caps=(25, 25)):
    return PriorEcpParams(math.sqrt(a2), math.sqrt(b2), math.sqrt(g2),
                          iterations_step1=caps[0], iterations_step2=caps[1])


# --- naive-form oracle: the raw powers, evaluated exactly over fractions of
# the squared moduli (every power is even, so no square root is taken) -------

def naive_step1(a2, b2, g2, n):
    a2, b2, g2 = Fraction(a2), Fraction(b2), Fraction(g2)
    half = 2 ** (n - 1)  # alpha^(2^n) = (alpha^2)^(2^(n-1))
    num = a2 ** half * (b2 ** (half - 1) * g2 + 2 * b2 ** half)
    den = 1
    for k in range(1, n + 1):
        den *= a2 ** (2 ** (k - 1)) + b2 ** (2 ** (k - 1))
    return float(num / den)


def naive_step2(a2, b2, g2, m):
    b2, g2 = Fraction(b2), Fraction(g2)
    half = 2 ** (m - 1)
    num = 3 * b2 ** half * g2 ** half
    den = 1
    for k in range(1, m + 1):
        den *= g2 ** (2 ** (k - 1)) + b2 ** (2 ** (k - 1))
    return float(num / den / (g2 + 2 * b2))


# --- validation -----------------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        PriorEcpParams(1.0, 0.1, 0.1)
    with pytest.raises(DomainError):
        PriorEcpParams(0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        PriorEcpParams(*EQUAL, iterations_step1=0)
    with pytest.raises(DomainError):
        prior_step1_prob(PriorEcpParams(*EQUAL), 0)
    with pytest.raises(DomainError):
        prior_step2_prob(PriorEcpParams(*EQUAL), 0)


@pytest.mark.parametrize("beta", [1e-200, 1e-155])
def test_beta_whose_square_underflows_is_rejected(beta):
    # beta^2 divides both step formulas: 0.0 or a subnormal would give inf or nan
    with pytest.raises(DomainError):
        PriorEcpParams(math.sqrt(0.5), beta, math.sqrt(0.5))


def test_tiny_beta_is_still_answered():
    total = prior_total_prob(PriorEcpParams(math.sqrt(0.5), 1e-150, math.sqrt(0.5)))
    assert math.isfinite(total) and 0.0 <= total <= 1.0


# --- step probabilities -----------------------------------------------------

def test_step_probs_equal_coefficients():
    p = PriorEcpParams(*EQUAL)
    # frozen from direct evaluation of the closed forms
    assert prior_step1_prob(p, 1) == pytest.approx(0.5, abs=1e-12)
    assert prior_step1_prob(p, 2) == pytest.approx(0.25, abs=1e-12)
    assert prior_step2_prob(p, 1) == pytest.approx(0.5, abs=1e-12)
    assert prior_step2_prob(p, 2) == pytest.approx(0.25, abs=1e-12)


def test_stable_form_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a2, b2, g2 = rng.dirichlet(np.ones(3))
        if min(a2, b2, g2) < 1e-3:
            continue
        p = params(a2, b2, g2)
        for n in range(1, 9):
            assert prior_step1_prob(p, n) == pytest.approx(
                naive_step1(a2, b2, g2, n), abs=1e-12)
            assert prior_step2_prob(p, n) == pytest.approx(
                naive_step2(a2, b2, g2, n), abs=1e-12)


def test_stable_form_survives_large_round_indices():
    p = params(0.5, THIRD, 1.0 - 0.5 - THIRD)
    for n in (50, 200, 1000):
        v1 = prior_step1_prob(p, n)
        v2 = prior_step2_prob(p, n)
        assert 0.0 <= v1 < 1.0
        assert 0.0 <= v2 < 1.0


def test_terms_positive_and_partial_sums_bounded():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a2, b2, g2 = rng.dirichlet(np.ones(3))
        if min(a2, b2, g2) < 1e-3:
            continue
        p = params(a2, b2, g2)
        s1 = s2 = 0.0
        for n in range(1, 26):
            t1, t2 = prior_step1_prob(p, n), prior_step2_prob(p, n)
            # far rounds underflow to an exact 0.0, the nearest double
            assert 0.0 <= t1 < 1.0
            assert 0.0 <= t2 < 1.0
            if n <= 4:
                assert t1 > 0.0
                assert t2 > 0.0
            s1 += t1
            s2 += t2
        assert 0.0 < s1 <= 1.0 + 1e-12
        assert 0.0 < s2 <= 1.0 + 1e-12


# --- totals -----------------------------------------------------------------

def test_total_equal_coefficients_five_rounds():
    # (31/32)^2, frozen; the "about 0.93" comparison point
    total = prior_total_prob(PriorEcpParams(*EQUAL, 5, 5))
    assert total == pytest.approx(0.9384765625, abs=1e-12)
    assert total == pytest.approx(0.93, abs=0.01)


def test_total_equal_coefficients_one_round():
    assert prior_total_prob(PriorEcpParams(*EQUAL, 1, 1)) == pytest.approx(0.25, abs=1e-12)


def test_total_converges_to_one_shot_value():
    # with 25 rounds per step the capped total reaches 3*gamma^2 = 1 here
    total = prior_total_prob(PriorEcpParams(*EQUAL, 25, 25))
    assert total == pytest.approx(1.0, abs=1e-3)


def test_total_nondecreasing_in_caps():
    p0 = params(0.45, THIRD, 1.0 - 0.45 - THIRD, caps=(1, 1))
    prev = 0.0
    for cap in range(1, 12):
        cur = prior_total_prob(params(0.45, THIRD, 1.0 - 0.45 - THIRD, caps=(cap, cap)))
        assert cur >= prev
        prev = cur
    assert prior_total_prob(p0) <= prev


def test_total_bounded_by_one_shot_curve():
    for alpha in default_alpha_grid(50):
        g2 = 1.0 - alpha * alpha - THIRD
        total = prior_total_prob(params(alpha * alpha, THIRD, g2))
        assert total <= 3.0 * g2 + 1e-9


def test_capped_total_close_to_limit_on_grid():
    for alpha in default_alpha_grid(50):
        g2 = 1.0 - alpha * alpha - THIRD
        total = prior_total_prob(params(alpha * alpha, THIRD, g2))
        assert total == pytest.approx(3.0 * g2, abs=1e-3)


def correctly_rounded_total(p):
    # Every round up to the caps, zero rounds included, each series one
    # math.fsum: correctly rounded, so its bits hold on every Python.
    s1 = math.fsum(prior_step1_prob(p, n) for n in range(1, p.iterations_step1 + 1))
    s2 = math.fsum(prior_step2_prob(p, m) for m in range(1, p.iterations_step2 + 1))
    return s1 * s2


def test_total_equals_full_series_sum():
    # On this grid a left-to-right sum differs from the correctly rounded one
    # in the last bits at thousands of points, so the total has the same bits
    # on every Python only if each series is summed correctly rounded.
    for alpha in default_alpha_grid(2000):
        g2 = 1.0 - alpha * alpha - THIRD
        for caps in ((1, 1), (3, 3), (5, 5), (25, 25), (40, 7)):
            p = params(alpha * alpha, THIRD, g2, caps=caps)
            assert prior_total_prob(p) == correctly_rounded_total(p)


def test_total_stops_at_first_zero_round(monkeypatch):
    # Rounds never increase, so each series ends at its first 0.0 round: a
    # cap of 2000 evaluates a few dozen rounds, and its total equals the
    # cap-100 total bit for bit.
    calls = []
    for name in ("prior_step1_prob", "prior_step2_prob"):
        def counted(p, n, real=getattr(comparison, name)):
            calls.append(n)
            return real(p, n)
        monkeypatch.setattr(comparison, name, counted)
    total = sweep_point(0.7, [(2000, 2000)])["A"]
    assert len(calls) < 100
    assert total == sweep_point(0.7, [(100, 100)])["A"]


def test_total_equal_coefficients_large_cap():
    # Equal moduli never shrink the ratio, so the rounds reach 0.0 only once
    # the chain product overflows; the total still converges to 3*gamma^2 = 1.
    assert prior_total_prob(PriorEcpParams(*EQUAL, 5000, 5000)) == pytest.approx(1.0, abs=1e-12)


# --- sweep -------------------------------------------------------------------

def test_default_grid_shape():
    grid = tuple(default_alpha_grid())
    assert len(grid) == 200
    assert ALPHA_LO < grid[0] < grid[-1] < ALPHA_HI
    assert grid[0] == pytest.approx(ALPHA_LO + 1e-6, abs=1e-12)
    assert grid[-1] == pytest.approx(ALPHA_HI - 1e-6, abs=1e-12)


def test_sweep_point_curves_ordered():
    for alpha in (0.65, *default_alpha_grid(20)):
        values = sweep_point(alpha)
        assert set(values) == {"A", "B", "C", "D"}
        assert values["A"] <= values["B"] <= values["C"] <= values["D"] + 1e-9
        g2 = 1.0 - alpha ** 2 - THIRD
        assert values["D"] == pytest.approx(3.0 * g2, abs=1e-12)


def test_sweep_point_domain_errors():
    with pytest.raises(DomainError):
        sweep_point(ALPHA_LO)  # ties with beta
    with pytest.raises(DomainError):
        sweep_point(ALPHA_HI)  # gamma hits zero
    with pytest.raises(DomainError):
        sweep_point(0.9)
    with pytest.raises(DomainError, match="no weight for gamma"):
        sweep_point(math.nextafter(ALPHA_HI, 0))  # gamma^2 ~ 5.6e-17, below pruning


def test_custom_caps_relabel_current_curve():
    values = sweep_point(0.65, [(2, 2)])
    assert set(values) == {"A", "B"}
    full = sweep_point(0.65)
    assert values["B"] == full["D"]
