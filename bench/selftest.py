"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

They check that a wrong answer is counted as a failed op, that the tracing
wrappers are gone after a traced pass, that call counts repeat exactly for a
seed, and that the metric names match BENCHMARK.json.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wecp import cli, optics, state  # noqa: E402


class WrongAnswers(unittest.TestCase):
    def run_first_op(self, name: str) -> run.Ledger:
        ledger = run.Ledger()
        wl = workloads.make_workload(name, 7, run.ROOT)
        latency = run.run_op(wl, wl.inputs(0), ledger)
        self.assertEqual(latency, math.inf)
        return ledger

    def test_perturbed_total_prob_fails_verify_op(self):
        original = cli._DRIVERS["polarization"]

        def perturbed(c):
            report = original(c)
            return dataclasses.replace(report, total_prob=report.total_prob + 1e-6)

        cli._DRIVERS["polarization"] = perturbed
        try:
            ledger = self.run_first_op("verify-small")
        finally:
            cli._DRIVERS["polarization"] = original
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))

    def test_perturbed_branch_probability_fails_scan_op(self):
        original = optics.detect_vacuum

        def perturbed(state, mode):
            out = original(state, mode)
            return dataclasses.replace(out, probability=out.probability * (1 + 1e-6))

        optics.detect_vacuum = perturbed
        try:
            ledger = self.run_first_op("scan")
        finally:
            optics.detect_vacuum = original
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))

    def test_perturbed_fidelity_fails_scan_op(self):
        original = state.fidelity

        def perturbed(a, b):
            return original(a, b) * (1 - 1e-6)

        state.fidelity = perturbed
        try:
            ledger = self.run_first_op("scan")
        finally:
            state.fidelity = original
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))

    def test_scan_checks_the_bound_at_the_optimal_cell(self):
        wl = workloads.make_workload("scan", 7, run.ROOT)
        inst, t1 = wl.inputs(wl.rows - 1)
        _, cells = wl.call((inst, t1))
        self.assertGreater(cells[-1][1], 1.0 - 1e-9)
        self.assertAlmostEqual(inst.expected(t1, inst.t2_grid[-1])[0], inst.bound, places=12)
        wl.check((inst, t1), (_, cells))

    def test_exception_is_a_failed_op_not_an_abort(self):
        original = cli.main

        def broken(argv):
            raise RuntimeError("injected")

        cli.main = broken
        try:
            ledger = self.run_first_op("verify-wide")
        finally:
            cli.main = original
        self.assertIn("injected", ledger.reasons[0])

    def test_nan_in_verify_output_fails_the_check(self):
        for field in ("max_abs_error", "min_fidelity"):
            rec = {"trials": 10, "max_abs_error": 0.0, "min_fidelity": 1.0, "failures": []}
            rec[field] = math.nan
            with self.assertRaises(workloads.CheckFailed):
                workloads.check_verify_output(0, json.dumps(rec), 10)

    def test_sweep_output_out_of_order_fails_the_check(self):
        code, text = workloads._call_cli(["compare", "--points", "3"])
        workloads.check_sweep_output(code, text, 3)
        swapped = text.replace(",A,0.25\n", ",A,0.9\n")
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_sweep_output(code, swapped, 3)


class TracedPass(unittest.TestCase):
    def traced_once(self, name: str, seed: int) -> dict:
        ledger = run.Ledger()
        wl = workloads.make_workload(name, seed, run.ROOT)
        self.assertTrue(all(r is None for r in wl.setup_checks().values()))
        metrics, detail, spans = run.traced(wl, 0.0, ledger)
        self.assertEqual(ledger.failed, 0)
        self.assertEqual(detail["trace_blocks"], 1)
        self.assertTrue(spans)
        return metrics

    def test_wrappers_removed_by_identity(self):
        before = tracing.bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = tracing.bindings()
        finally:
            tracer.remove()
        self.assertTrue(all(a is not b for a, b in zip(before, during)))
        self.traced_once("verify-small", 3)
        after = tracing.bindings()
        self.assertTrue(all(a is b for a, b in zip(before, after)))

    def test_calls_per_op_repeat_exactly(self):
        for name in ("verify-small", "scan"):
            first, second = (self.traced_once(name, 3) for _ in range(2))
            for key in first:
                if key.endswith(("calls_per_op", "terms_out_per_op", "kept_term_frac")):
                    self.assertEqual(first[key], second[key], f"{name} {key}")

    def test_layer_isolation(self):
        sweep = self.traced_once("sweep", 0)
        for fn in ("optics.apply_vbs", "optics.apply_pbs", "optics.detect_vacuum",
                   "state.PureState.init"):
            self.assertEqual(sweep[f"{fn}.calls_per_op"], 0.0, fn)
        scan = self.traced_once("scan", 0)
        for fn in ("optics.apply_pbs", "protocols.run_single_photon_ecp",
                   "protocols.run_polarization_ecp"):
            self.assertEqual(scan[f"{fn}.calls_per_op"], 0.0, fn)


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layer = tracing.layer_metrics({}, {}, {}, 1)
        traced = [*layer, "trace.overhead_frac", *tracing.ladder_names()]
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(traced))
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]),
                         sorted(["setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                 "peak_rss_mb"]))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
