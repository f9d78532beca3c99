"""Command-line front end: run a protocol, verify against the closed forms,
or emit the four-curve comparison sweep as CSV.

Exit codes are a stable contract: 0 success, 1 property violation
(simulation disagrees with the closed forms), 2 input validation error.
``main`` is the one entry point: it checks every input in one guard, and a
rejected one prints a machine-readable JSON record to stderr before any
command starts. The commands then take only valid values.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from typing import Callable, Iterator, NoReturn, Sequence

from .comparison import (
    DEFAULT_CAPS,
    DEFAULT_GRID_POINTS,
    MAX_CAP_PAIRS,
    DomainError,
    default_alpha_grid,
    sweep_point,
)
from .protocols import (
    MAX_PARTIES,
    BadCoefficients,
    WCoefficients,
    analytic_total_probability,
    run_polarization_ecp,
    run_single_photon_ecp,
)
from .state import _fsum

MATCH_TOL = 1e-10
FIDELITY_TOL = 1e-10
# Bounds on the work one command line may ask for; README states the cost at each.
_MAX_POINTS = 10_000_000
_MAX_TRIALS = 100_000

_DRIVERS = {
    "single-photon": run_single_photon_ecp,
    "polarization": run_polarization_ecp,
}


class UsageError(ValueError):
    """The command line or its environment does not parse."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise, for ``main`` to report."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def _passes(error: float, fid: float) -> bool:
    """The pass rule of ``run`` and ``verify``, written so that a NaN fails."""
    return error < MATCH_TOL and fid > 1.0 - FIDELITY_TOL


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fail_validation(exc: Exception) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return 2


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise BadCoefficients(f"cannot parse number list {text!r}") from exc


def _run(
    protocol: str,
    coeffs2: tuple[float, ...],
    phases: tuple[float, ...] | None,
    coeffs: WCoefficients,
    output_format: str,
) -> int:
    """Run one protocol and report step, total, and analytic probabilities."""
    report = _DRIVERS[protocol](coeffs)
    analytic = analytic_total_probability(coeffs)
    payload = {
        "protocol": protocol,
        "coeffs2": list(coeffs2),
        "phases": list(phases) if phases else None,
        "step_probs": list(report.step_probs),
        "total_prob": report.total_prob,
        "analytic_prob": analytic,
        "fidelity": report.fidelity_to_target,
    }

    out = sys.stdout
    if output_format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif output_format == "csv":
        out.write("field,value\n")
        out.write(f"protocol,{protocol}\n")
        out.write(f"coeffs2,{';'.join(_fmt(x) for x in coeffs2)}\n")
        for i, p in enumerate(report.step_probs, start=1):
            out.write(f"step_prob_{i},{_fmt(p)}\n")
        out.write(f"total_prob,{_fmt(report.total_prob)}\n")
        out.write(f"analytic_prob,{_fmt(analytic)}\n")
        out.write(f"fidelity,{_fmt(report.fidelity_to_target)}\n")
    else:
        out.write(f"protocol: {protocol}\n")
        out.write(f"coeffs2: {' '.join(_fmt(x) for x in coeffs2)}\n")
        for step, p in zip(report.steps, report.step_probs):
            out.write(
                f"step party={step.party + 1} t={_fmt(step.transmittance)}"
                f" kept_prob={_fmt(p)}\n"
            )
        out.write(f"total_prob: {_fmt(report.total_prob)}\n")
        out.write(f"analytic_prob: {_fmt(analytic)}\n")
        out.write(f"fidelity: {_fmt(report.fidelity_to_target)}\n")

    return 0 if _passes(abs(report.total_prob - analytic), report.fidelity_to_target) else 1


def _compare(grid: Iterator[float], caps: Sequence[tuple[int, int]]) -> int:
    """Emit the comparison sweep as CSV (alpha, curve, probability); an alpha
    the sweep cannot evaluate loses its rows and is counted as omitted."""
    out = sys.stdout
    omitted = 0
    out.write("alpha,curve,probability\n")
    for alpha in grid:
        try:
            values = sweep_point(alpha, caps)
        except DomainError:
            omitted += 1
            continue
        for label, prob in values.items():
            out.write(f"{_fmt(alpha)},{label},{_fmt(prob)}\n")
    out.write(f"# omitted={omitted}\n")
    return 0


def _sample_coefficients(rng: random.Random, n: int) -> WCoefficients:
    # Dirichlet(1, ..., 1): n unit-rate exponential draws over their sum.
    while True:
        draws = [rng.expovariate(1.0) for _ in range(n)]
        total = _fsum(draws)
        c2 = tuple(x / total for x in draws)
        if min(c2) >= 1e-12:
            break
    phases = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    return WCoefficients.from_squared(c2, phases)


def _worst(values: Sequence[float], pick: Callable[[Sequence[float]], float]) -> float:
    """``pick`` (max or min) of ``values``, or NaN if any value is NaN.

    The builtins alone would drop a NaN, depending on where it falls.
    """
    return math.nan if any(math.isnan(v) for v in values) else pick(values)


def _verify(
    trials: int,
    n_range: tuple[int, int],
    seed: int,
    forced: WCoefficients | None,
) -> int:
    """Check both drivers against the closed form on random coefficient
    vectors, or on the ``forced`` instance in every trial."""
    rng = random.Random(seed)
    errors, fids, failures = [], [], []
    for _ in range(trials):
        if forced is not None:
            coeffs = forced
        else:
            coeffs = _sample_coefficients(rng, rng.randint(*n_range))
        analytic = analytic_total_probability(coeffs)
        for name, driver in _DRIVERS.items():
            report = driver(coeffs)
            err = abs(report.total_prob - analytic)
            errors.append(err)
            fids.append(report.fidelity_to_target)
            if not _passes(err, report.fidelity_to_target):
                failures.append({
                    "protocol": name,
                    "coeffs2": list(coeffs.moduli_squared),
                    "error": err,
                    "fidelity": report.fidelity_to_target,
                })

    summary = {
        "trials": trials,
        "n_range": list(n_range) if forced is None else [forced.n] * 2,
        "seed": seed,
        "max_abs_error": _worst(errors, max),
        "min_fidelity": _worst(fids, min),
        "failures": failures,
    }
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wecp",
        description="Concentration circuits for partially entangled W states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one protocol on given coefficients")
    p_run.add_argument("--protocol", choices=sorted(_DRIVERS), required=True)
    p_run.add_argument("--coeffs2", required=True,
                       help="comma-separated squared moduli, e.g. 0.5,0.3,0.2")
    p_run.add_argument("--phases", default=None,
                       help="comma-separated phases in radians, one per coefficient")
    p_run.add_argument("--format", dest="output_format", default="text",
                       choices=("text", "json", "csv"))

    p_cmp = sub.add_parser("compare", help="emit the four-curve sweep as CSV")
    p_cmp.add_argument("--points", type=int, default=DEFAULT_GRID_POINTS)
    p_cmp.add_argument("--caps", nargs="+",
                       default=[f"{a},{b}" for a, b in DEFAULT_CAPS],
                       help="round-cap pairs for the baseline curves, e.g. 1,1 3,3 5,5")

    p_ver = sub.add_parser("verify", help="randomized check against the closed forms")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--n-range", default="2,8",
                       help="party-count range as lo,hi")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="RNG seed; falls back to ECP_SEED, then 0")
    p_ver.add_argument("--coeffs2", default=None,
                       help="pin every trial to these squared moduli")
    return parser


# Built on the first ``main`` call rather than at import, so importing the CLI
# stays cheap, then reused by every later call in the process.
_shared_parser = functools.cache(build_parser)


def _env_seed() -> int:
    raw = os.environ.get("ECP_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"ECP_SEED must be an integer, got {raw!r}") from None


def _check_party_count(n: int) -> None:
    if n > MAX_PARTIES:  # the default party labels would run out of letters
        raise BadCoefficients(f"at most {MAX_PARTIES} parties, got {n}")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv``; one with any invalid input exits 2 unrun."""
    try:
        args = _shared_parser().parse_args(argv)
        if args.command == "run":
            coeffs2 = _parse_floats(args.coeffs2)
            phases = _parse_floats(args.phases) if args.phases is not None else None
            coeffs = WCoefficients.from_squared(coeffs2, phases)
            _check_party_count(coeffs.n)
            run = functools.partial(_run, args.protocol, coeffs2, phases, coeffs,
                                    args.output_format)
        elif args.command == "compare":
            pairs = (pair.split(",") for pair in args.caps)
            caps = tuple((int(a), int(b)) for a, b in pairs)
            if any(n < 1 or m < 1 for n, m in caps):
                raise DomainError(f"round caps must be positive: {list(caps)}")
            grid = default_alpha_grid(args.points)
            if len(caps) > MAX_CAP_PAIRS:  # the curves would run out of letters
                raise DomainError(f"at most {MAX_CAP_PAIRS} round-cap pairs, got {len(caps)}")
            if args.points > _MAX_POINTS:
                raise DomainError(f"at most {_MAX_POINTS} grid points, got {args.points}")
            run = functools.partial(_compare, grid, caps)
        else:
            lo, hi = (int(x) for x in args.n_range.split(","))
            coeffs2 = _parse_floats(args.coeffs2) if args.coeffs2 is not None else None
            seed = args.seed if args.seed is not None else _env_seed()
            if args.trials < 1:
                raise BadCoefficients(f"need at least one trial, got {args.trials}")
            if coeffs2 is None and not (2 <= lo <= hi):  # the range is read only to sample
                raise BadCoefficients(f"bad party-count range {(lo, hi)}")
            if seed < 0:
                raise UsageError(f"seed must be nonnegative, got {seed}")
            forced = WCoefficients.from_squared(coeffs2) if coeffs2 is not None else None
            _check_party_count(hi if forced is None else forced.n)
            if args.trials > _MAX_TRIALS:
                raise BadCoefficients(f"at most {_MAX_TRIALS} trials, got {args.trials}")
            run = functools.partial(_verify, args.trials, (lo, hi), seed, forced)
    except ValueError as exc:
        return _fail_validation(exc)
    # called outside the guard: an error while a command runs is no rejected input
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
