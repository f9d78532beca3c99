"""The four benchmark workloads and the checks applied to every op.

A workload turns an op index into inputs (benchmark-side, untimed), makes one
call into the package (timed), and checks the answer (untimed). Inputs depend
only on the benchmark seed and the op index, so ops 0..K-1 are the same on
every run with the same seed; the traced pass relies on that.

Every package entry point is looked up on its module at call time
(``cli.main``, ``optics.apply_vbs``, ...) so that tracing wrappers installed
on those modules see the call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from wecp import cli, optics, protocols, state

MATCH_TOL = 1e-10
FIDELITY_TOL = 1e-10


class CheckFailed(Exception):
    """An op returned a wrong, non-finite or malformed answer."""


def _require(ok: bool, what: str) -> None:
    # Callers pass NaN-safe conditions, e.g. ``err < tol`` rather than
    # ``not err >= tol``, so a NaN fails the check.
    if not ok:
        raise CheckFailed(what)


def _call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_verify_output(code: int, text: str, trials: int) -> None:
    """Exit 0, parseable JSON, no failures, error and fidelity within tolerance."""
    _require(code == 0, f"verify exited {code}")
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"verify output is not JSON: {exc}") from exc
    _require(rec.get("trials") == trials, f"trials field {rec.get('trials')!r}")
    _require(rec.get("failures") == [], f"failures {rec.get('failures')!r}")
    err = rec.get("max_abs_error")
    _require(isinstance(err, float) and err < MATCH_TOL, f"max_abs_error {err!r}")
    fid = rec.get("min_fidelity")
    _require(isinstance(fid, float) and fid >= 1.0 - FIDELITY_TOL, f"min_fidelity {fid!r}")


class Verify:
    """``wecp verify`` in process, one call per op, seeded per op."""

    def __init__(self, seed: int, trials: int, n_range: str, trace_block: int):
        self.trials = trials
        self.n_range = n_range
        self.trace_block = trace_block
        self._rng = random.Random(seed)
        self._seeds: list[int] = []

    def setup_checks(self) -> dict[str, str | None]:
        return {}

    def inputs(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(31))
        return self._seeds[i]

    def call(self, op_seed: int) -> tuple[int, str]:
        return _call_cli(["verify", "--trials", str(self.trials),
                          "--n-range", self.n_range, "--seed", str(op_seed)])

    def check(self, op_seed: int, out: tuple[int, str]) -> None:
        check_verify_output(*out, self.trials)


SCAN_GRID = tuple(float(t) for t in np.linspace(0.01, 1.0, 100))


class _ScanInstance:
    """One 3-party single-photon state, its target, and the first two parties.

    Its grid is ``SCAN_GRID`` plus the optimal transmittance of each party,
    t1 = |a_lo|²/|a_hi|² and t2 = |a_lo|²/|a_mid|², so the one cell that reaches
    fidelity 1 is always scanned and the optimality bound is always checked.
    """

    def __init__(self, rng: np.random.Generator):
        c2 = rng.dirichlet(np.ones(3))
        while min(c2) < 0.01:
            c2 = rng.dirichlet(np.ones(3))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        c = protocols.WCoefficients.from_squared(tuple(c2), tuple(phases))
        m2 = c.moduli_squared
        order = sorted(range(3), key=lambda i: (-m2[i], i))
        self.m2_hi, self.m2_mid, self.m2_lo = (m2[i] for i in order)
        self.bound = 3.0 * self.m2_lo
        self.t1_grid = SCAN_GRID + (self.m2_lo / self.m2_hi,)
        self.t2_grid = SCAN_GRID + (self.m2_lo / self.m2_mid,)
        labels = protocols.default_party_labels(3)
        self.mode_hi, self.mode_mid = labels[order[0]], labels[order[1]]
        self.state0 = protocols.w_state_single_photon(c, labels)
        final = list(labels)
        final[order[0]], final[order[1]] = "u1", "u2"
        self.target = protocols.target_w_state(c, final)

    def expected(self, t1: float, t2: float) -> tuple[float, float]:
        """Closed-form kept probability and fidelity of cell (t1, t2).

        The kept state has moduli sqrt(t1·m_hi), sqrt(t2·m_mid), sqrt(m_lo) with
        the input phases unchanged, and the target has the same phases.
        """
        w = (t1 * self.m2_hi, t2 * self.m2_mid, self.m2_lo)
        prob = sum(w)
        return prob, sum(math.sqrt(x) for x in w) ** 2 / (3.0 * prob)


class Scan:
    """Transmittance grid of the optimality-bound check, one t1 row per op.

    Each instance has 101 rows (``SCAN_GRID`` plus its optimal t1). Op i
    scans row i % 101 of instance i // 101: one VBS + detector on the largest
    party, then 101 VBS + detector + fidelity cells on the middle one.
    """

    rows = len(SCAN_GRID) + 1
    trace_block = rows

    def __init__(self, seed: int):
        self._seed = seed
        self._instances: dict[int, _ScanInstance] = {}

    def setup_checks(self) -> dict[str, str | None]:
        return {}

    def inputs(self, i: int) -> tuple[_ScanInstance, float]:
        k = i // self.rows
        if k not in self._instances:
            self._instances = {k: _ScanInstance(np.random.default_rng([self._seed, k]))}
        inst = self._instances[k]
        return inst, inst.t1_grid[i % self.rows]

    def call(self, inp: tuple[_ScanInstance, float]) -> tuple[float, list[tuple[float, float]]]:
        inst, t1 = inp
        s1 = optics.apply_vbs(inst.state0, optics.VbsSetting(inst.mode_hi, "u1", "v1", t1))
        o1 = optics.detect_vacuum(s1, "v1")
        cells = []
        for t2 in inst.t2_grid:
            s2 = optics.apply_vbs(o1.kept_state,
                                  optics.VbsSetting(inst.mode_mid, "u2", "v2", t2))
            o2 = optics.detect_vacuum(s2, "v2")
            cells.append((o2.probability, state.fidelity(o2.kept_state, inst.target)))
        return o1.probability, cells

    def check(self, inp: tuple[_ScanInstance, float],
              out: tuple[float, list[tuple[float, float]]]) -> None:
        inst, t1 = inp
        p1, cells = out
        _require(len(cells) == len(inst.t2_grid), f"{len(cells)} cells")
        for t2, (p2, fid) in zip(inst.t2_grid, cells):
            prob = p1 * p2
            want_prob, want_fid = inst.expected(t1, t2)
            _require(abs(prob - want_prob) <= MATCH_TOL,
                     f"kept probability {prob!r} != {want_prob!r} at t=({t1}, {t2})")
            _require(abs(fid - want_fid) <= FIDELITY_TOL,
                     f"fidelity {fid!r} != {want_fid!r} at t=({t1}, {t2})")
            # Optimality bound. A fidelity deficit e = 1 - fid lets the kept
            # probability exceed 3·min|a|² by bound·sqrt(8e) to first order, so
            # a grid cell next to the optimum may exceed it a little; the
            # factor 2 covers the higher orders. At the optimal cell e ~ 0.
            if fid > 1.0 - 1e-6:
                allowed = inst.bound * (1.0 + 2.0 * math.sqrt(8.0 * (1.0 - fid))) + 1e-9
                _require(prob <= allowed,
                         f"near-fidelity-1 cell beats the bound: {prob!r} > {allowed!r}")


SWEEP_ARGV = ["compare", "--points", "200", "--caps", "1,1", "3,3", "5,5"]
SWEEP_FIXTURE = Path("tests") / "data" / "compare_points3.csv"


def check_sweep_output(code: int, text: str, points: int) -> None:
    """Exit 0, header, 4 rows per alpha, nothing omitted, curves ordered A<=B<=C<=D."""
    _require(code == 0, f"compare exited {code}")
    lines = text.split("\n")
    _require(lines[0] == "alpha,curve,probability", f"header {lines[0]!r}")
    _require(lines[-2:] == ["# omitted=0", ""], f"trailer {lines[-2:]!r}")
    rows = lines[1:-2]
    _require(len(rows) == 4 * points, f"{len(rows)} data rows")
    for k in range(0, len(rows), 4):
        fields = [r.split(",") for r in rows[k:k + 4]]
        _require(len({f[0] for f in fields}) == 1, f"rows {k}..{k + 3} mix alphas")
        _require([f[1] for f in fields] == ["A", "B", "C", "D"], f"curves at row {k}")
        a, b, c, d = (float(f[2]) for f in fields)
        _require(a <= b + 1e-9 and b <= c + 1e-9 and c <= d + 1e-9,
                 f"curve order violated at alpha {fields[0][0]}: {a}, {b}, {c}, {d}")


class Sweep:
    """``wecp compare --points 200`` in process; no random input, ignores the seed.

    Set-up checks the first output in full and the 3-point output against the
    test fixture; each op must then reproduce the first output byte for byte.
    """

    trace_block = 40

    def __init__(self, root: Path):
        self._root = root
        self._reference: str | None = None

    def setup_checks(self) -> dict[str, str | None]:
        """Outcome per set-up check: None when it passed, else the reason."""
        results: dict[str, str | None] = {"reference": None, "fixture": None}
        try:
            code, text = _call_cli(SWEEP_ARGV)
            check_sweep_output(code, text, 200)
            self._reference = text
        except Exception as exc:  # noqa: BLE001 - any exception is a failed check
            results["reference"] = repr(exc)
        try:
            code, text = _call_cli(["compare", "--points", "3"])
            fixture = (self._root / SWEEP_FIXTURE).read_text()
            _require(code == 0 and text == fixture, "--points 3 output differs from fixture")
        except Exception as exc:  # noqa: BLE001 - any exception is a failed check
            results["fixture"] = repr(exc)
        return results

    def inputs(self, i: int) -> None:
        return None

    def call(self, _inp: None) -> tuple[int, str]:
        return _call_cli(SWEEP_ARGV)

    def check(self, _inp: None, out: tuple[int, str]) -> None:
        code, text = out
        _require(code == 0, f"compare exited {code}")
        _require(self._reference is not None and text == self._reference,
                 "output differs from the checked reference")


WORKLOADS = ("verify-small", "verify-wide", "scan", "sweep")


def make_workload(name: str, seed: int, root: Path):
    if name == "verify-small":
        return Verify(seed, trials=10, n_range="2,8", trace_block=20)
    if name == "verify-wide":
        return Verify(seed, trials=1, n_range="32,32", trace_block=4)
    if name == "scan":
        return Scan(seed)
    if name == "sweep":
        return Sweep(root)
    raise ValueError(f"unknown workload {name!r}")
