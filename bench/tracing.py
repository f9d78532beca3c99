"""Per-layer tracing from outside the package, and the N-ladder pass.

``Tracer.install`` replaces each layer's public functions at the places
callers look them up (module globals, the CLI driver table, class attributes)
with wrappers that record a span per call; ``Tracer.remove`` puts the
originals back. Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict

import numpy as np

from wecp import cli, comparison, optics, protocols, state


def _count_vbs(counts, args, result) -> None:
    counts["optics.apply_vbs.terms_out"] += len(result.terms)


def _count_detect(counts, args, result) -> None:
    counts["optics.detect_vacuum.terms_in"] += len(args[0].terms)
    counts["optics.detect_vacuum.terms_kept"] += len(result.kept_state.terms)


# (owner, attribute or dict key, span name, count hook). One span name may sit
# at several lookup sites; every site that a workload reaches is listed.
def _targets():
    return [
        (state.PureState, "__init__", "state.PureState.init", None),
        (state.Ket, "__post_init__", "state.Ket.post_init", None),
        (state, "fidelity", "state.fidelity", None),
        (protocols, "fidelity", "state.fidelity", None),
        (protocols, "fresh_label", "state.fresh_label", None),
        (optics, "apply_vbs", "optics.apply_vbs", _count_vbs),
        (protocols, "apply_vbs", "optics.apply_vbs", _count_vbs),
        (optics, "detect_vacuum", "optics.detect_vacuum", _count_detect),
        (protocols, "detect_vacuum", "optics.detect_vacuum", _count_detect),
        (optics, "apply_pbs", "optics.apply_pbs", None),
        (protocols, "apply_pbs", "optics.apply_pbs", None),
        (cli._DRIVERS, "single-photon", "protocols.run_single_photon_ecp", None),
        (cli._DRIVERS, "polarization", "protocols.run_polarization_ecp", None),
        (protocols.WCoefficients, "__post_init__", "protocols.WCoefficients.init", None),
        (protocols, "target_w_state", "protocols.target_w_state", None),
        (cli, "sweep_point", "comparison.sweep_point", None),
        (comparison, "prior_total_prob", "comparison.prior_total_prob", None),
        (comparison, "prior_step1_prob", "comparison.prior_step1_prob", None),
        (comparison, "prior_step2_prob", "comparison.prior_step2_prob", None),
        (cli, "main", "cli.main", None),
    ]


SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in _targets()))


def bindings() -> list[object]:
    """What each wrapped lookup site holds right now, in target order."""
    return [_get(owner, key) for owner, key, _, _ in _targets()]


def _get(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent_index, op_id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, object, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, key, name, count in _targets():
            original = _get(owner, key)
            self._originals.append((owner, key, original))
            _set(owner, key, self._wrap(name, original, count))

    def remove(self) -> None:
        while self._originals:
            owner, key, original = self._originals.pop()
            _set(owner, key, original)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[list]) -> dict[str, tuple[int, int]]:
    """Per span name: (calls, self ns), self = duration minus child spans."""
    child = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: [0, 0] for name in SPAN_NAMES}
    for (name, start, end, _parent, _op), inner in zip(spans, child):
        out[name][0] += 1
        out[name][1] += end - start - inner
    return {name: (c, ns) for name, (c, ns) in out.items()}


def layer_metrics(calls: dict[str, int], self_ns: dict[str, int],
                  counts: dict[str, int], ops: int) -> dict[str, float]:
    """Per-op layer metrics from totals over ``ops`` traced ops."""
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
        metrics[f"{name}.self_us_per_op"] = self_ns.get(name, 0) / 1e3 / ops
    metrics["optics.apply_vbs.terms_out_per_op"] = counts.get("optics.apply_vbs.terms_out", 0) / ops
    terms_in = counts.get("optics.detect_vacuum.terms_in", 0)
    kept = counts.get("optics.detect_vacuum.terms_kept", 0)
    metrics["optics.detect_vacuum.kept_term_frac"] = kept / terms_in if terms_in else 0.0
    return metrics


LADDER_N = (3, 8, 16, 32)
LADDER_MIN_S = 0.1
LADDER_MIN_REPS = 3


def _time_call(fn) -> float:
    """Median microseconds per call over at least LADDER_MIN_S of repeated calls."""
    samples = []
    deadline = time.perf_counter() + LADDER_MIN_S
    while len(samples) < LADDER_MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / 1e3)
    return statistics.median(samples)


def _ladder_cases(rng: np.random.Generator, n: int):
    """Seeded coefficients at N and one call per timed function, all on the
    polarization state, whose first circuit step is what each element does."""
    c2 = rng.dirichlet(np.ones(n))
    while min(c2) < 1e-3 / n:
        c2 = rng.dirichlet(np.ones(n))
    c = protocols.WCoefficients.from_squared(tuple(c2), tuple(rng.uniform(0, 2 * math.pi, n)))
    m2 = c.moduli_squared
    party = m2.index(max(m2))
    labels = protocols.default_party_labels(n)
    pol = protocols.w_state_polarization(c, labels)
    terms = dict(pol.terms)
    split = optics.apply_pbs(pol, optics.PbsWiring(labels[party], None, "x_h", "x_v"))
    vbs = optics.VbsSetting("x_h", "x_t", "x_r", min(m2) / m2[party])
    spread = optics.apply_vbs(split, vbs)
    target = protocols.target_w_state(c, labels, polarization=True)

    def check_driver(driver):
        report = driver(c)
        expected = n * min(m2)
        if not (abs(report.total_prob - expected) < 1e-10
                and report.fidelity_to_target >= 1.0 - 1e-10):
            raise ValueError(f"{driver.__name__} wrong at N={n}: {report.total_prob}")

    for driver in (protocols.run_single_photon_ecp, protocols.run_polarization_ecp):
        check_driver(driver)
    return {
        "protocols.run_single_photon_ecp": lambda: protocols.run_single_photon_ecp(c),
        "protocols.run_polarization_ecp": lambda: protocols.run_polarization_ecp(c),
        "state.PureState.init": lambda: state.PureState(terms, modes=labels),
        "optics.apply_pbs": lambda: optics.apply_pbs(
            pol, optics.PbsWiring(labels[party], None, "x_h", "x_v")),
        "optics.apply_vbs": lambda: optics.apply_vbs(split, vbs),
        "optics.detect_vacuum": lambda: optics.detect_vacuum(spread, "x_r"),
        "state.fidelity": lambda: state.fidelity(pol, target),
    }


LADDER_FUNCS = (
    "protocols.run_single_photon_ecp", "protocols.run_polarization_ecp",
    "state.PureState.init", "optics.apply_pbs", "optics.apply_vbs",
    "optics.detect_vacuum", "state.fidelity",
)
LADDER_FITS = ("protocols.run_single_photon_ecp", "protocols.run_polarization_ecp")


def ladder(seed: int) -> dict[str, float]:
    """Microseconds per call at each N, plus a log-log growth exponent per driver.

    Raises ValueError when a driver's answer is wrong at some N.
    """
    rng = np.random.default_rng([seed, 1306])
    metrics = {}
    for n in LADDER_N:
        for name, fn in _ladder_cases(rng, n).items():
            metrics[f"ladder.{name}.n{n}.us_per_call"] = _time_call(fn)
    logn = [math.log(n) for n in LADDER_N]
    for name in LADDER_FITS:
        logt = [math.log(metrics[f"ladder.{name}.n{n}.us_per_call"]) for n in LADDER_N]
        metrics[f"ladder.{name}.exponent"] = statistics.linear_regression(logn, logt).slope
    return metrics


def ladder_names() -> list[str]:
    names = [f"ladder.{f}.n{n}.us_per_call" for n in LADDER_N for f in LADDER_FUNCS]
    return names + [f"ladder.{f}.exponent" for f in LADDER_FITS]
