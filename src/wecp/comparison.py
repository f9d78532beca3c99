"""Closed-form success probabilities of the earlier iterative concentration scheme.

The baseline scheme concentrates a three-photon polarization W state in two
steps, each of which may be repeated; round n of step 1 and round m of step 2
succeed with probabilities whose denominators are chains of factors
x^(2^k) + y^(2^k). Raw powers like that underflow double precision near
n = 10, so each chain factor is evaluated through the ratio
s^(2^k) = (min/max)^(2^k), carried by repeated squaring; the ratio underflows
gracefully to 0 exactly when the true term is negligible.

The four-curve sweep compares round-capped totals of the baseline scheme
(curves A, B, C) against the one-shot circuit's 3*gamma^2 (curve D) over the
admissible range of the leading coefficient.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterator, Sequence

from .protocols import BadCoefficients, WCoefficients, analytic_total_probability
from .state import _fsum

FIG_BETA = 1.0 / math.sqrt(3.0)
ALPHA_LO = math.sqrt(1.0 / 3.0)
ALPHA_HI = math.sqrt(2.0 / 3.0)

DEFAULT_CAPS: tuple[tuple[int, int], ...] = ((1, 1), (3, 3), (5, 5))
# The curves are named A to Z: one letter per cap pair, then the one-shot curve.
MAX_CAP_PAIRS = 25
DEFAULT_GRID_POINTS = 200
GRID_MARGIN = 1e-6


class DomainError(ValueError):
    """Parameters outside the admissible coefficient range."""


@dataclass(frozen=True)
class PriorEcpParams:
    """Moduli of the three coefficients plus the round caps for both steps."""

    alpha: float
    beta: float
    gamma: float
    iterations_step1: int = 25
    iterations_step2: int = 25

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} = {v} must lie in (0, 1)")
        # beta^2 divides both step formulas, so it must not underflow
        if self.beta**2 < sys.float_info.min:
            raise DomainError(f"beta = {self.beta} squares below the smallest normal float")
        total = self.alpha**2 + self.beta**2 + self.gamma**2
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"squared moduli sum to {total}, not 1")
        if self.iterations_step1 < 1 or self.iterations_step2 < 1:
            raise DomainError("round caps must be positive")


def _chain(x2: float, y2: float, n: int) -> tuple[float, float, float]:
    """Stable pieces of the n-factor chain prod_{j<n} (x^(2^(j+1)) + y^(2^(j+1))).

    Returns (s^(2^(n-1)), prod_{j<n} (1 + s^(2^j)), max(x2, y2)) where
    s = min(x2, y2) / max(x2, y2); the chain itself equals
    max^(2^n - 1) * prod, which is never materialized.
    """
    hi = max(x2, y2)
    s = min(x2, y2) / hi
    prod = 1.0
    sj = s
    last = sj
    for _ in range(n):
        prod *= 1.0 + sj
        last = sj
        sj = sj * sj
    return last, prod, hi


def prior_step1_prob(p: PriorEcpParams, n: int) -> float:
    """Success probability of round n of the baseline scheme's first step."""
    if n < 1:
        raise DomainError("round index must be >= 1")
    a2, b2, g2 = p.alpha**2, p.beta**2, p.gamma**2
    s_pow, prod, hi = _chain(a2, b2, n)
    return (g2 + 2.0 * b2) / b2 * hi * s_pow / prod


def prior_step2_prob(p: PriorEcpParams, m: int) -> float:
    """Success probability of round m of the baseline scheme's second step."""
    if m < 1:
        raise DomainError("round index must be >= 1")
    b2, g2 = p.beta**2, p.gamma**2
    s_pow, prod, hi = _chain(g2, b2, m)
    return 3.0 * hi * s_pow / prod / (g2 + 2.0 * b2)


def prior_total_prob(p: PriorEcpParams) -> float:
    """Round-capped total: (sum of step-1 rounds) * (sum of step-2 rounds).

    The exact total sums both series to infinity; the doubly exponential
    exponents make the default caps of 25 agree with the limit to well below
    1e-3 everywhere on the sweep domain.

    Round probabilities never increase with the round index (``s_pow`` only
    shrinks and ``prod`` only grows), so once a round is exactly 0.0 every
    later round is too, and each series stops there: the zero rounds would
    not change the sum, and skipping them bounds the cost for any cap. Each
    series is one correctly rounded sum, by ``state._fsum``.
    """
    rounds1 = (prior_step1_prob(p, n) for n in range(1, p.iterations_step1 + 1))
    rounds2 = (prior_step2_prob(p, m) for m in range(1, p.iterations_step2 + 1))
    return _fsum(takewhile(bool, rounds1)) * _fsum(takewhile(bool, rounds2))


def default_alpha_grid(points: int = DEFAULT_GRID_POINTS) -> Iterator[float]:
    """Uniform alpha grid over the open admissible interval, computed as it is
    read, so a sweep holds one point at a time however many it asks for.

    Endpoints violate the strict ordering of the coefficients, so the grid
    approaches them to within GRID_MARGIN instead of touching them.

    Raises:
        DomainError: ``points`` is below 1; raised by the call itself,
            before any point is read.
    """
    if points < 1:
        raise DomainError("grid needs at least one point")
    lo = ALPHA_LO + GRID_MARGIN
    hi = ALPHA_HI - GRID_MARGIN
    step = (hi - lo) / max(points - 1, 1)
    return (lo + i * step for i in range(points))


def sweep_point(
    alpha: float, caps: Sequence[tuple[int, int]] = DEFAULT_CAPS
) -> dict[str, float]:
    """All curve values at one alpha, with beta pinned to 1/sqrt(3), in
    curve order.

    Curves A, B, ... are the round-capped baseline totals for the
    ``(step 1, step 2)`` cap pairs in ``caps``, in order; the next letter
    (D for the default caps) is the one-shot circuit's closed form. The names
    stay letters for up to ``MAX_CAP_PAIRS`` pairs.

    Raises:
        DomainError: gamma^2 at this alpha is small enough for the state to
            prune, or the strict ordering alpha > beta > gamma fails.
    """
    beta = FIG_BETA
    gamma2 = 1.0 - alpha * alpha - beta * beta
    try:
        coeffs = WCoefficients.from_squared((alpha * alpha, beta * beta, gamma2))
    except BadCoefficients as exc:
        raise DomainError(f"alpha = {alpha} leaves no weight for gamma") from exc
    gamma = math.sqrt(gamma2)
    if not (alpha > beta > gamma):
        raise DomainError(f"alpha = {alpha} violates the strict coefficient ordering")

    values = {}
    for i, (cap1, cap2) in enumerate(caps):
        params = PriorEcpParams(alpha, beta, gamma,
                                iterations_step1=cap1, iterations_step2=cap2)
        values[chr(ord("A") + i)] = prior_total_prob(params)
    values[chr(ord("A") + len(caps))] = analytic_total_probability(coeffs)
    return values

