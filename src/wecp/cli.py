"""Command-line front end: run a protocol, verify against the closed forms,
or emit the four-curve comparison sweep as CSV.

Exit codes are a stable contract: 0 success, 1 property violation
(simulation disagrees with the closed forms), 2 input validation error.
Validation errors print a machine-readable JSON record to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import NoReturn, Sequence, TextIO

import numpy as np

from .comparison import DomainError, default_alpha_grid, sweep_point
from .protocols import (
    BadCoefficients,
    WCoefficients,
    analytic_total_probability,
    plan_transmittances,
    run_polarization_ecp,
    run_single_photon_ecp,
)

MATCH_TOL = 1e-10
FIDELITY_TOL = 1e-10

_DRIVERS = {
    "single-photon": run_single_photon_ecp,
    "polarization": run_polarization_ecp,
}


@dataclass(frozen=True)
class RunConfig:
    """One protocol invocation: which circuit, which coefficients, how to print."""

    protocol: str
    coeffs2: tuple[float, ...]
    phases: tuple[float, ...] | None = None
    output_format: str = "text"


class UsageError(ValueError):
    """The command line or its environment does not parse."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors keep the exit-2 JSON contract."""

    def error(self, message: str) -> NoReturn:
        _fail_validation(UsageError(f"{self.prog}: {message}"))
        self.exit(2)


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


def cmd_run(config: RunConfig, out: TextIO | None = None) -> int:
    """Run one protocol and report step, total, and analytic probabilities."""
    out = out if out is not None else sys.stdout
    try:
        coeffs = WCoefficients.from_squared(config.coeffs2, config.phases)
        driver = _DRIVERS[config.protocol]
    except (ValueError, KeyError) as exc:
        return _fail_validation(exc)

    report = driver(coeffs)
    analytic = analytic_total_probability(coeffs)
    payload = {
        "protocol": config.protocol,
        "coeffs2": list(config.coeffs2),
        "phases": list(config.phases) if config.phases else None,
        "step_probs": list(report.step_probs),
        "total_prob": report.total_prob,
        "analytic_prob": analytic,
        "fidelity": report.fidelity_to_target,
    }

    if config.output_format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif config.output_format == "csv":
        out.write("field,value\n")
        out.write(f"protocol,{config.protocol}\n")
        out.write(f"coeffs2,{';'.join(_fmt(x) for x in config.coeffs2)}\n")
        for i, p in enumerate(report.step_probs, start=1):
            out.write(f"step_prob_{i},{_fmt(p)}\n")
        out.write(f"total_prob,{_fmt(report.total_prob)}\n")
        out.write(f"analytic_prob,{_fmt(analytic)}\n")
        out.write(f"fidelity,{_fmt(report.fidelity_to_target)}\n")
    else:
        plan = plan_transmittances(coeffs)
        out.write(f"protocol: {config.protocol}\n")
        out.write(f"coeffs2: {' '.join(_fmt(x) for x in config.coeffs2)}\n")
        for step, p in zip(plan.steps, report.step_probs):
            out.write(
                f"step party={step.party + 1} t={_fmt(step.transmittance)}"
                f" kept_prob={_fmt(p)}\n"
            )
        out.write(f"total_prob: {_fmt(report.total_prob)}\n")
        out.write(f"analytic_prob: {_fmt(analytic)}\n")
        out.write(f"fidelity: {_fmt(report.fidelity_to_target)}\n")

    return 0 if abs(report.total_prob - analytic) < MATCH_TOL else 1


def cmd_compare(
    points: int,
    caps: Sequence[tuple[int, int]],
    alpha_grid: Sequence[float] | None = None,
    out: TextIO | None = None,
) -> int:
    """Emit the comparison sweep as CSV (alpha, curve, probability)."""
    out = out if out is not None else sys.stdout
    try:
        if not caps:
            raise DomainError("need at least one cap pair")
        if any(n < 1 or m < 1 for n, m in caps):
            raise DomainError(f"round caps must be positive: {list(caps)}")
        grid = default_alpha_grid(points) if alpha_grid is None else tuple(alpha_grid)
    except DomainError as exc:
        return _fail_validation(exc)

    caps_per_curve = {chr(ord("A") + i): pair for i, pair in enumerate(caps)}
    omitted = 0
    out.write("alpha,curve,probability\n")
    for alpha in grid:
        try:
            values = sweep_point(alpha, caps_per_curve)
        except DomainError:
            omitted += 1
            continue
        for label, prob in sorted(values.items()):
            out.write(f"{_fmt(alpha)},{label},{_fmt(prob)}\n")
    out.write(f"# omitted={omitted}\n")
    return 0


def _sample_coefficients(rng: np.random.Generator, n: int) -> WCoefficients:
    while True:
        c2 = rng.dirichlet(np.ones(n))
        if min(c2) >= 1e-12:
            break
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return WCoefficients.from_squared(tuple(c2), tuple(phases))


def cmd_verify(
    trials: int,
    n_range: tuple[int, int],
    seed: int,
    coeffs2: tuple[float, ...] | None = None,
    out: TextIO | None = None,
) -> int:
    """Check both drivers against the closed form on random coefficient vectors."""
    out = out if out is not None else sys.stdout
    try:
        if trials < 1:
            raise BadCoefficients(f"need at least one trial, got {trials}")
        lo, hi = n_range
        if not (2 <= lo <= hi):
            raise BadCoefficients(f"bad party-count range {n_range}")
        if seed < 0:
            raise UsageError(f"seed must be nonnegative, got {seed}")
        forced = WCoefficients.from_squared(coeffs2) if coeffs2 is not None else None
    except ValueError as exc:
        return _fail_validation(exc)

    rng = np.random.default_rng(seed)
    errors, fids, failures = [], [], []
    for _ in range(trials):
        if forced is not None:
            coeffs = forced
        else:
            coeffs = _sample_coefficients(rng, int(rng.integers(lo, hi + 1)))
        analytic = analytic_total_probability(coeffs)
        for name, driver in _DRIVERS.items():
            report = driver(coeffs)
            err = abs(report.total_prob - analytic)
            errors.append(err)
            fids.append(report.fidelity_to_target)
            # Written so that a NaN error or fidelity counts as a failure.
            if not (err < MATCH_TOL and report.fidelity_to_target > 1.0 - FIDELITY_TOL):
                failures.append({
                    "protocol": name,
                    "coeffs2": [abs(a) ** 2 for a in coeffs.amps],
                    "error": err,
                    "fidelity": report.fidelity_to_target,
                })

    summary = {
        "trials": trials,
        "n_range": list(n_range),
        "seed": seed,
        # np.max / np.min propagate NaN where the builtins would drop it.
        "max_abs_error": float(np.max(errors)),
        "min_fidelity": float(np.min(fids)),
        "failures": failures,
    }
    json.dump(summary, out, indent=2)
    out.write("\n")
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
    p_cmp.add_argument("--points", type=int, default=200)
    p_cmp.add_argument("--caps", nargs="+", default=["1,1", "3,3", "5,5"],
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            coeffs2 = _parse_floats(args.coeffs2)
            phases = _parse_floats(args.phases) if args.phases else None
        except BadCoefficients as exc:
            return _fail_validation(exc)
        config = RunConfig(
            protocol=args.protocol,
            coeffs2=coeffs2,
            phases=phases,
            output_format=args.output_format,
        )
        return cmd_run(config)
    if args.command == "compare":
        try:
            caps = tuple(
                (int(a), int(b))
                for a, b in (pair.split(",") for pair in args.caps)
            )
        except ValueError as exc:
            return _fail_validation(exc)
        return cmd_compare(args.points, caps)
    # verify
    try:
        lo, hi = (int(x) for x in args.n_range.split(","))
        coeffs2 = _parse_floats(args.coeffs2) if args.coeffs2 else None
    except (ValueError, BadCoefficients) as exc:
        return _fail_validation(exc)
    seed = args.seed
    if seed is None:
        raw = os.environ.get("ECP_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            return _fail_validation(UsageError(f"ECP_SEED must be an integer, got {raw!r}"))
    return cmd_verify(args.trials, (lo, hi), seed, coeffs2)


if __name__ == "__main__":
    raise SystemExit(main())
