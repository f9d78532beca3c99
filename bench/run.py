"""wecp benchmark: one workload per run, closed loop, one client, no threads.

Usage (from the repository root):

    python3 bench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates untraced and traced blocks of the same ops for per-layer metrics
and the tracing overhead, then runs the N-ladder. The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``;
the line before it is a JSON report with the full detail. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread in this process and in the set-up interpreters: the
# benchmark is one process with no threads, and on a 2-CPU shared host an
# idle OpenBLAS pool roughly doubled the spread of fresh-import times.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

WARMUP_S = 0.5
# Set-up is timed SETUP_REPS times, one fresh interpreter before each of
# SETUP_REPS equal slices of the timed window, so its samples span the run
# like the ops do. The host's speed drifts by up to half over tens of seconds;
# samples taken all at once read whichever speed the host had at that moment.
SETUP_REPS = 15
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import wecp, wecp.cli; print(time.perf_counter() - t)"
)
MAX_REASONS = 5
# The tail is p90 on every workload. Higher percentiles landed inside bursts
# of host contention: between runs of the same code on a shared 2-CPU host,
# p95 on sweep spread by 28 % and p99 by 43 % (quartile distance over median).
TAIL_PCT = 90.0


def import_time_s() -> float:
    """Seconds to import wecp and wecp.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


class Ledger:
    """Every op and set-up check, ok or failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        """Count one op or check; ``reason`` is None when it passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)


def run_op(wl, inp, ledger: Ledger) -> float:
    """One timed call plus its check. Returns latency in ms, inf when failed."""
    t0 = time.perf_counter()
    try:
        out = wl.call(inp)
        latency = (time.perf_counter() - t0) * 1e3
        wl.check(inp, out)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts
        ledger.record(f"{type(exc).__name__}: {exc}"[:300])
        return math.inf
    ledger.record(None)
    return latency


def tail(latencies: list[float], pct: float) -> float:
    """Nearest-rank latency at ``pct``."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    i = 0
    warm_until = time.perf_counter() + WARMUP_S
    while i == 0 or time.perf_counter() < warm_until:
        run_op(wl, wl.inputs(i), ledger)
        i += 1
    latencies, setup, busy = [], [], 0.0
    for _ in range(SETUP_REPS):
        setup.append(import_time_s())
        start = time.perf_counter()
        slice_end = start + seconds / SETUP_REPS
        while not latencies or time.perf_counter() < slice_end:
            latencies.append(run_op(wl, wl.inputs(i), ledger))
            i += 1
        busy += time.perf_counter() - start
    ok = sum(1 for x in latencies if x != math.inf)
    metrics = {
        "ops_per_s": (ok / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail(latencies, TAIL_PCT), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {"timed_ops": len(latencies), "timed_s": busy, "tail_percentile": TAIL_PCT,
              "setup_samples_s": setup}
    return metrics, detail


def traced(wl, seconds: float, ledger: Ledger) -> tuple[dict, dict, list[list]]:
    """Alternate untraced and traced blocks of ops 0..K-1 for ``seconds``.

    Every block runs the same inputs, so call counts per op repeat exactly.
    Returns the layer metrics, run detail, and the first traced block's spans.
    """
    import tracing

    inputs = [wl.inputs(i) for i in range(wl.trace_block)]
    for inp in inputs:  # warm-up block, not recorded
        run_op(wl, inp, ledger)
    tracer = tracing.Tracer()
    plain, wrapped = [], []
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    first_spans = None
    blocks = 0
    deadline = time.perf_counter() + seconds
    while blocks == 0 or time.perf_counter() < deadline:
        plain += [run_op(wl, inp, ledger) for inp in inputs]
        tracer.install()
        try:
            for i, inp in enumerate(inputs):
                tracer.op = i
                wrapped.append(run_op(wl, inp, ledger))
        finally:
            tracer.remove()
            tracer.op = None
        spans, block_counts = tracer.take()
        for name, (c, ns) in tracing.self_times(spans).items():
            calls[name] = calls.get(name, 0) + c
            self_ns[name] = self_ns.get(name, 0) + ns
        for name, c in block_counts.items():
            counts[name] = counts.get(name, 0) + c
        if first_spans is None:
            first_spans = spans
        blocks += 1
    metrics = tracing.layer_metrics(calls, self_ns, counts, blocks * len(inputs))
    metrics["trace.overhead_frac"] = statistics.median(wrapped) / statistics.median(plain) - 1.0
    detail = {"trace_blocks": blocks, "ops_per_block": len(inputs)}
    return metrics, detail, first_spans


def write_spans(path: Path, spans: list[list]) -> None:
    import tracing

    path.parent.mkdir(exist_ok=True)
    index = {name: k for k, name in enumerate(tracing.SPAN_NAMES)}
    with open(path, "w") as fh:
        json.dump({"names": list(tracing.SPAN_NAMES),
                   "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                   "spans": [[index[s[0]], *s[1:]] for s in spans]}, fh)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "seed": seed}


def per_layer_units() -> dict[str, str]:
    """Unit of each per-layer metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(args) -> int:
    import workloads

    ledger = Ledger()
    wl = workloads.make_workload(args.workload, args.seed, ROOT)
    for check, reason in wl.setup_checks().items():
        ledger.record(None if reason is None else f"set-up {check}: {reason}")
    if args.trace:
        import tracing

        metrics, detail, spans = traced(wl, args.seconds, ledger)
        try:
            metrics.update(tracing.ladder(args.seed))
            ledger.record(None)
        except ValueError as exc:
            ledger.record(f"ladder: {exc}")
        detail["spans_file"] = str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        write_spans(Path(detail["spans_file"]), spans)
        units = per_layer_units()
        measured = {name: (value, units[name]) for name, value in metrics.items()}
    else:
        measured, detail = end_to_end(wl, args.seconds, ledger)
    # A failed op's latency is infinite; JSON has no infinity, so it reads null.
    result = {name: {"value": v if math.isfinite(v) else None, "unit": u}
              for name, (v, u) in measured.items()}
    report = {"workload": args.workload, "trace": args.trace,
              "error_rate": ledger.failed / ledger.attempted,
              "failure_reasons": ledger.reasons, **detail,
              "environment": environment(args.seed)}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, as a table."""
    import workloads

    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=170 + 2 * args.seconds)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        report_line, result_line = proc.stdout.strip().split("\n")[-2:]
        report, result = json.loads(report_line)["report"], json.loads(result_line)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
        total["metrics"][f"{name}.error_rate"] = {"value": report["error_rate"],
                                                  "unit": "ratio"}
        rows.append((name, result, report))
    for name, result, report in rows:
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={report['error_rate']:.6g}")
        if not args.trace:
            print(f"    {report['timed_ops']} timed ops in {report['timed_s']:.1f} s; "
                  f"op_tail_ms is p{report['tail_percentile']:g}")
        for metric, m in result["metrics"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"    {metric:<52} {value:>14} {m['unit']}")
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-small", "verify-wide", "scan", "sweep", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wecp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
