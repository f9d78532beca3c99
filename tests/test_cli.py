"""CLI contract tests: output schemas, exit codes, byte-stable CSV."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import wecp
from wecp import cli
from wecp.cli import main
from wecp.protocols import MAX_PARTIES, RunReport, default_party_labels

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "compare_points3.csv"


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -------------------------------------------------------------------

def test_run_text_output(capsys):
    code, out, _ = run_main(capsys, [
        "run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2"])
    assert code == 0
    assert "total_prob: 0.6" in out
    assert "analytic_prob: 0.6" in out
    assert "fidelity: 1" in out


def test_run_json_schema(capsys):
    code, out, _ = run_main(capsys, [
        "run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2",
        "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "protocol", "coeffs2", "phases", "step_probs",
        "total_prob", "analytic_prob", "fidelity",
    }
    assert payload["total_prob"] == pytest.approx(0.6, abs=1e-10)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert len(payload["step_probs"]) == 2


def test_run_polarization_near_equal(capsys):
    code, out, _ = run_main(capsys, [
        "run", "--protocol", "polarization",
        "--coeffs2", "0.3333333,0.3333333,0.3333334", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total_prob"] == pytest.approx(1.0, abs=1e-6)


def test_run_csv_output(capsys):
    code, out, _ = run_main(capsys, [
        "run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2",
        "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert fields["total_prob"] == "0.6"
    assert fields["step_prob_1"] == "0.7"


def test_run_with_phases(capsys):
    code, out, _ = run_main(capsys, [
        "run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2",
        "--phases", f"{math.pi / 2},0,0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("fixture, argv", [
    ("run_single_photon.txt",
     ["--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2"]),
    ("run_polarization.json",
     ["--protocol", "polarization", "--coeffs2", "0.5,0.3,0.2", "--format", "json"]),
    ("run_single_photon_phases.txt",
     ["--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2", "--phases", "1.5708,0,0"]),
    ("run_polarization_phases.txt",
     ["--protocol", "polarization", "--coeffs2", "0.1,0.4,0.2,0.3",
      "--phases=0.3,-1,2,0.5"]),
    ("run_polarization_phases.csv",
     ["--protocol", "polarization", "--coeffs2", "0.1,0.4,0.2,0.3",
      "--phases=0.3,-1,2,0.5", "--format", "csv"]),
])
def test_run_golden_bytes(capsys, fixture, argv):
    # The text fixtures pin the "step party=... t=..." lines, which are read
    # from the steps the run itself executed.
    code, out, _ = run_main(capsys, ["run", *argv])
    assert code == 0
    assert out.encode() == (DATA / fixture).read_bytes()


def test_run_invalid_coefficients_exit_2(capsys):
    code, out, err = run_main(capsys, [
        "run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.1"])
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "BadCoefficients"


def test_run_unparsable_coefficients_exit_2(capsys):
    code, _, err = run_main(capsys, [
        "run", "--protocol", "single-photon", "--coeffs2", "0.5,zzz"])
    assert code == 2
    assert json.loads(err)["error"] == "BadCoefficients"


def test_run_nan_coefficient_exit_2(capsys):
    code, out, err = run_main(capsys, [
        "run", "--protocol", "polarization", "--coeffs2", "nan,0.5,0.5"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadCoefficients"


COMMANDS = [
    ["run", "--protocol", "single-photon", "--format", "json"],
    ["run", "--protocol", "polarization", "--format", "json"],
    ["verify", "--trials", "1", "--seed", "0"],
]
COMMAND_IDS = ["single-photon", "polarization", "verify"]


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("weight", ["1e-20", "1e-16", "1e-15"])
def test_weight_at_or_below_pruning_threshold_exit_2(capsys, command, weight):
    # the state would prune this party's term, so the run could not answer
    code, out, err = run_main(capsys, command + ["--coeffs2", f"{weight},0.3,0.7"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadCoefficients"


def assert_answered(command, code, out):
    assert code == 0
    payload = json.loads(out)
    if command[0] == "run":
        assert payload["total_prob"] == pytest.approx(payload["analytic_prob"], abs=1e-10)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-10)
    else:
        assert payload["failures"] == []


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("weight", ["1.01e-15", "1e-14"])
def test_weight_just_above_pruning_threshold_is_answered(capsys, command, weight):
    code, out, _ = run_main(capsys, command + ["--coeffs2", f"{weight},0.3,0.7"])
    assert_answered(command, code, out)


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("coeffs2", ["0.5,0.3,0.2000000009", "0.5,0.3,0.1999999991"])
def test_input_within_sum_tolerance_matches_closed_form(capsys, command, coeffs2):
    # accepted within the 1e-9 sum tolerance, so the closed form must use the
    # normalized moduli, as the simulated state does
    code, out, _ = run_main(capsys, command + ["--coeffs2", coeffs2])
    assert_answered(command, code, out)


NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"])


@given(NON_FINITE, st.integers(0, 2), st.booleans())
def test_run_any_non_finite_number_exit_2(token, position, in_phases):
    coeffs2, phases = ["0.5", "0.3", "0.2"], ["0", "0", "0"]
    (phases if in_phases else coeffs2)[position] = token
    # "--opt=value" form: argparse reads a bare "-inf,..." as an option name
    argv = ["run", "--protocol", "single-photon",
            "--coeffs2=" + ",".join(coeffs2), "--phases=" + ",".join(phases)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert json.loads(err.getvalue())["error"] == "BadCoefficients"


@pytest.mark.parametrize("fid", [0.5, math.nan])
def test_run_fails_on_a_low_or_nan_fidelity(monkeypatch, fid):
    # run passes by the rule verify uses: the probability matches AND the
    # fidelity is within tolerance of 1, so a NaN fidelity fails
    real = cli._DRIVERS["polarization"]

    def off_target(c):
        report = real(c)
        return RunReport(report.step_probs, report.total_prob, report.final_state, fid)

    monkeypatch.setitem(cli._DRIVERS, "polarization", off_target)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--protocol", "polarization", "--coeffs2", "0.5,0.3,0.2"])
    assert code == 1


# --- compare -----------------------------------------------------------------

def test_compare_golden_bytes(capsys):
    code, out, _ = run_main(capsys, ["compare", "--points", "3"])
    assert code == 0
    assert out == GOLDEN.read_text()
    assert out.endswith("# omitted=0\n")


def test_compare_default_row_count(capsys):
    code, out, _ = run_main(capsys, ["compare"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,curve,probability"
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 200 * 4


def test_compare_deterministic(capsys):
    _, first, _ = run_main(capsys, ["compare", "--points", "7"])
    _, second, _ = run_main(capsys, ["compare", "--points", "7"])
    assert first == second


def test_compare_counts_omitted_rows(monkeypatch):
    # an alpha the sweep cannot evaluate loses its rows and is counted
    grid = tuple(wecp.default_alpha_grid(3))
    real = cli.sweep_point

    def failing_at_middle(alpha, caps):
        if alpha == grid[1]:
            raise wecp.DomainError("injected")
        return real(alpha, caps)

    monkeypatch.setattr(cli, "sweep_point", failing_at_middle)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert main(["compare", "--points", "3", "--caps", "1,1"]) == 0
    text = buf.getvalue()
    assert text.endswith("# omitted=1\n")
    data = [l for l in text.splitlines()[1:] if not l.startswith("#")]
    assert len(data) == 2 * 2  # two valid alphas, curves A and B
    assert {cli._fmt(a) for a in (grid[0], grid[2])} == {l.split(",")[0] for l in data}


def test_compare_custom_caps_labels(capsys):
    code, out, _ = run_main(capsys, ["compare", "--points", "2", "--caps", "2,2"])
    assert code == 0
    curves = {line.split(",")[1] for line in out.strip().splitlines()[1:-1]}
    assert curves == {"A", "B"}


def test_compare_bad_caps_exit_2(capsys):
    code, _, err = run_main(capsys, ["compare", "--points", "2", "--caps", "x,y"])
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_compare_zero_caps_exit_2(capsys):
    code, out, err = run_main(capsys, ["compare", "--points", "3", "--caps", "0,0"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_compare_rejects_more_cap_pairs_than_curve_letters(capsys):
    pairs = [f"{k},{k}" for k in range(1, 27)]
    code, out, _ = run_main(capsys, ["compare", "--points", "1", "--caps", *pairs[:25]])
    assert code == 0
    curves = [line.split(",")[1] for line in out.splitlines()[1:-1]]
    assert curves == [chr(ord("A") + i) for i in range(26)]
    code, out, err = run_main(capsys, ["compare", "--points", "1", "--caps", *pairs])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "DomainError",
                               "message": "at most 25 round-cap pairs, got 26"}
    # 26 pairs and one more fault report that fault, as before the limit
    for argv, error in ((["--points", "0", "--caps", *pairs], "DomainError"),
                        (["--caps", "0,0", *pairs[1:]], "DomainError"),
                        (["--caps", "x,y", *pairs[1:]], "ValueError")):
        code, _, err = run_main(capsys, ["compare", *argv])
        assert code == 2
        record = json.loads(err)
        assert record["error"] == error
        assert "round-cap pairs" not in record["message"]


def test_rejects_more_parties_than_the_labels_name(capsys):
    # the default labels are letters up to the limit: a1 to z1, aa1 to zz1
    assert default_party_labels(MAX_PARTIES)[-1] == "zz1"
    assert not default_party_labels(MAX_PARTIES + 1)[-1][:-1].isalpha()
    too_many = ",".join([repr(1 / 703)] * 703)
    for argv in (["run", "--protocol", "single-photon", "--coeffs2", too_many],
                 ["verify", "--trials", "1", "--n-range", "2,703"],
                 ["verify", "--trials", "1", "--n-range", "1,1", "--coeffs2", too_many]):
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "BadCoefficients",
                                   "message": "at most 702 parties, got 703"}
    # too many parties and one more fault report that fault, as before the limit
    for argv, error in ((["verify", "--trials", "0", "--n-range", "2,703"], "BadCoefficients"),
                        (["verify", "--n-range", "2,703", "--seed", "-1"], "UsageError"),
                        (["verify", "--coeffs2", too_many + ",0.5"], "BadCoefficients"),
                        (["run", "--protocol", "polarization", "--coeffs2", too_many,
                          "--phases", "0"], "BadCoefficients")):
        code, _, err = run_main(capsys, argv)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == error
        assert "parties" not in record["message"]
    code, out, _ = run_main(capsys, ["run", "--protocol", "single-photon",
                                     "--coeffs2", ",".join([repr(1 / 702)] * 702)])
    assert code == 0
    assert out.startswith("protocol: single-photon\n")


def test_rejects_more_points_and_trials_than_the_limits(capsys, monkeypatch):
    # each limit bounds the work of one command line
    points, trials = str(cli._MAX_POINTS + 1), str(cli._MAX_TRIALS + 1)
    for argv, error, message in (
            (["compare", "--points", points], "DomainError",
             f"at most {cli._MAX_POINTS} grid points, got {points}"),
            (["verify", "--trials", trials], "BadCoefficients",
             f"at most {cli._MAX_TRIALS} trials, got {trials}"),
            (["verify", "--trials", "99999999999999999999", "--coeffs2", "0.5,0.5"],
             "BadCoefficients", f"at most {cli._MAX_TRIALS} trials, got 99999999999999999999")):
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error, "message": message}
    # above a limit and one more fault report that fault, as before the limit
    pairs = [f"{k},{k}" for k in range(1, 27)]
    for argv, error in ((["compare", "--points", points, "--caps", "0,1"], "DomainError"),
                        (["compare", "--points", points, "--caps", *pairs], "DomainError"),
                        (["verify", "--trials", trials, "--n-range", "5,2"], "BadCoefficients"),
                        (["verify", "--trials", trials, "--seed", "-1"], "UsageError"),
                        (["verify", "--trials", trials, "--n-range", "2,703"], "BadCoefficients"),
                        (["verify", "--trials", trials, "--coeffs2", "0.5,0.6"],
                         "BadCoefficients")):
        code, _, err = run_main(capsys, argv)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == error
        assert "grid points" not in record["message"]
        assert "trials" not in record["message"]
    # at the limit verify runs (compare streams: see the grid test below)
    calls = []
    monkeypatch.setattr(cli, "_verify", lambda *args: calls.append(args) or 0)
    assert main(["verify", "--trials", str(cli._MAX_TRIALS)]) == 0
    assert [args[0] for args in calls] == [cli._MAX_TRIALS]


def test_compare_single_point(capsys):
    code, out, _ = run_main(capsys, ["compare", "--points", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 4 + 1
    assert {line.split(",")[1] for line in lines[1:-1]} == {"A", "B", "C", "D"}
    assert lines[-1] == "# omitted=0"


@pytest.mark.parametrize("argv, error", [
    # an explicit empty list is parsed, not read as "not given"
    (["run", "--protocol", "single-photon", "--coeffs2", "0.5,0.3,0.2", "--phases="],
     "BadCoefficients"),
    (["verify", "--trials", "1", "--seed", "0", "--coeffs2="], "BadCoefficients"),
    (["verify", "--trials", "1", "--n-range", "5,2"], "BadCoefficients"),
    (["verify", "--trials", "1", "--n-range", "1,3"], "BadCoefficients"),
    (["verify", "--trials", "1", "--n-range", "x,2"], "ValueError"),
    (["verify", "--trials", "1", "--n-range", "2,8,9"], "ValueError"),
    (["compare", "--points", "0"], "DomainError"),
    # finite squared moduli whose sum passes the largest float: inf, not 1
    (["run", "--protocol", "single-photon", "--coeffs2", "1e308,1e308"], "BadCoefficients"),
    (["verify", "--trials", "1", "--coeffs2", "1e308,1e308"], "BadCoefficients"),
])
def test_rejected_argument_exit_2(capsys, argv, error):
    code, out, err = run_main(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


def test_usage_error_prints_json_record(capsys):
    code, out, err = run_main(capsys, ["compare", "--points", "abc"])
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError"
    assert "--points" in record["message"]


def _cli_env():
    return {**os.environ, "PYTHONPATH": str(Path(wecp.__file__).parents[1])}


HUGE_GRID_SCRIPT = f"""
import resource, sys
limit = 256 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from wecp.cli import main
sys.exit(main(["compare", "--points", "{cli._MAX_POINTS}"]))
"""


def test_compare_streams_a_grid_too_large_to_hold(capsys):
    # The most points a command line may ask for, 1e7, take about 320 MB as
    # one tuple of floats. The child's address space is capped below that,
    # so a grid built before the first row dies there with a MemoryError; a
    # streamed grid writes rows at once. The child is killed after two lines,
    # or after 60 s.
    with subprocess.Popen([sys.executable, "-u", "-c", HUGE_GRID_SCRIPT], env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            head = [proc.stdout.readline(), proc.stdout.readline()]
        finally:
            timer.cancel()
            proc.kill()
    # the first alpha of every grid is the lower end, so row 1 is shared
    code, out, _ = run_main(capsys, ["compare", "--points", "2"])
    assert code == 0
    assert head == out.splitlines(keepends=True)[:2]


# --- verify -------------------------------------------------------------------

def test_verify_wide_golden_bytes(capsys):
    # N = 27..40: two-letter party labels, and both circuits at full width.
    code, out, _ = run_main(capsys, [
        "verify", "--trials", "20", "--n-range", "27,40", "--seed", "3"])
    assert code == 0
    assert out.encode() == (DATA / "verify_wide.json").read_bytes()


def test_verify_small_batch(capsys):
    code, out, _ = run_main(capsys, [
        "verify", "--trials", "25", "--n-range", "2,5", "--seed", "42"])
    assert code == 0
    summary = json.loads(out)
    assert summary["max_abs_error"] < 1e-10
    assert summary["min_fidelity"] > 1.0 - 1e-10
    assert summary["failures"] == []


def test_verify_forced_coefficients(capsys):
    # the echo names the N that ran, not the range that was asked for; a range
    # no trial samples from is never read, so even 1,1 is no error
    for coeffs2, n_range, echo in (("0.5,0.3,0.2", "5,9", [3, 3]),
                                   ("0.5,0.5", "1,1", [2, 2])):
        code, out, _ = run_main(capsys, [
            "verify", "--trials", "1", "--seed", "0",
            "--coeffs2", coeffs2, "--n-range", n_range])
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] == 1
        assert summary["max_abs_error"] < 1e-10
        assert summary["n_range"] == echo


def test_verify_zero_trials_usage_error(capsys):
    code, _, err = run_main(capsys, ["verify", "--trials", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "BadCoefficients"


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("ECP_SEED", "77")
    code, out, _ = run_main(capsys, ["verify", "--trials", "3", "--n-range", "2,3"])
    assert code == 0
    assert json.loads(out)["seed"] == 77


def test_verify_bad_seed_from_environment_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("ECP_SEED", "abc")
    code, out, err = run_main(capsys, ["verify", "--trials", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_verify_negative_seed_exit_2(capsys):
    code, _, err = run_main(capsys, ["verify", "--trials", "1", "--seed", "-1"])
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_verify_nan_coefficient_never_exits_0(capsys):
    code, out, err = run_main(capsys, [
        "verify", "--trials", "1", "--seed", "0", "--coeffs2", "nan,0.5,0.5"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadCoefficients"


@pytest.mark.parametrize("total_prob, fid", [(math.nan, 1.0), (0.5, math.nan)])
def test_verify_aggregation_keeps_nan(monkeypatch, total_prob, fid):
    # A driver answering NaN must fail the batch and show in the summary,
    # not be dropped by max()/min() or pass a tolerance comparison.
    real = cli._DRIVERS["polarization"]

    def broken(c):
        report = real(c)
        return RunReport(report.step_probs, total_prob, report.final_state, fid)

    monkeypatch.setitem(cli._DRIVERS, "polarization", broken)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(["verify", "--trials", "3", "--n-range", "2,4", "--seed", "1",
                     "--coeffs2", "0.25,0.25,0.5"])
    assert code == 1
    summary = json.loads(buf.getvalue())
    assert len(summary["failures"]) == 3
    worst = summary["max_abs_error"] if math.isnan(total_prob) else summary["min_fidelity"]
    assert math.isnan(worst)


def test_verify_deterministic_for_fixed_seed(capsys):
    argv = ["verify", "--trials", "10", "--n-range", "2,4", "--seed", "5"]
    _, first, _ = run_main(capsys, argv)
    _, second, _ = run_main(capsys, argv)
    assert first == second


def test_verify_samples_valid_instances(monkeypatch):
    # The sampler covers every N in the range and draws unit-norm moduli
    # above the 1e-12 floor.
    seen = []
    for name, driver in list(cli._DRIVERS.items()):
        def recording(c, driver=driver):
            seen.append(c)
            return driver(c)
        monkeypatch.setitem(cli._DRIVERS, name, recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--trials", "200", "--n-range", "2,4", "--seed", "11"]) == 0
    assert {len(c.amps) for c in seen} == {2, 3, 4}
    for c in seen:
        m2 = [abs(a) ** 2 for a in c.amps]
        assert abs(sum(m2) - 1.0) <= 1e-12
        assert min(m2) >= 1e-12


# --- an error while a command runs is no rejected input --------------------------

@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "polarization", "--coeffs2", "0.5,0.3,0.2"],
    ["verify", "--trials", "1", "--seed", "0"],
    ["compare", "--points", "3"],
], ids=["run", "verify", "compare"])
def test_an_error_while_a_command_runs_escapes_main(monkeypatch, argv):
    # main checks its inputs before any command starts; a ValueError raised
    # later is a fault of the program, so it escapes instead of exiting 2
    def broken(*args):
        raise wecp.ZeroState("injected")

    if argv[0] == "compare":
        monkeypatch.setattr(cli, "sweep_point", broken)
    else:
        monkeypatch.setitem(cli._DRIVERS, "polarization", broken)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            pytest.raises(wecp.ZeroState, match="injected"):
        main(argv)
    assert err.getvalue() == ""


# --- runtime dependencies ------------------------------------------------------

NO_NUMPY_SCRIPT = """
import contextlib, io, sys
import wecp, wecp.cli
argvs = (["run", "--protocol", "polarization", "--coeffs2", "0.5,0.3,0.2"],
         ["compare", "--points", "3"],
         ["verify", "--trials", "5", "--seed", "0"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [wecp.cli.main(argv) for argv in argvs]
if codes != [0, 0, 0] or "numpy" in sys.modules:
    sys.exit(f"exit codes {codes}, numpy imported: {'numpy' in sys.modules}")
"""


def test_cli_runs_on_the_standard_library_alone():
    # A fresh interpreter, so no module the test suite imported is loaded.
    result = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT], env=_cli_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


NO_NUMPY_TESTS_SCRIPT = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
if "numpy" in sys.modules:
    sys.exit("numpy imported")
"""


def test_test_modules_import_on_the_standard_library_alone():
    # test_bench_hooks is the one exception: it loads bench/tracing.py, which
    # imports numpy. A fresh interpreter run from tests/, as above, that keeps
    # the caller's PYTHONPATH, where pytest and hypothesis may be found.
    tests = Path(__file__).parent
    modules = sorted(p.stem for p in tests.glob("test_*.py") if p.stem != "test_bench_hooks")
    path = os.pathsep.join(filter(None, [_cli_env()["PYTHONPATH"], os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", NO_NUMPY_TESTS_SCRIPT, *modules],
                            cwd=tests, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# --- one parser per process -----------------------------------------------------

def test_consecutive_main_calls_reuse_one_parser(capsys):
    # A usage error must leave the shared parser fit for the calls after it.
    argvs = (["verify", "--trials", "x"],
             ["verify", "--trials", "20", "--n-range", "2,6", "--seed", "9"],
             ["compare", "--points", "5", "--caps", "2,2"])
    cli._shared_parser.cache_clear()
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "wecp.cli", *argv], env=_cli_env(),
                               capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                      fresh.stderr)
    assert cli._shared_parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()


# --- the exit-code contract on generated command lines ---------------------------

# Number spellings: exponents, signs, underscores, non-ASCII digits, non-finite
# values and empty items. Sizes stay small, so an accepted command runs quickly.
INT_TEXT = ["0", "1", "2", "3", "-1", "-0", "+2", "0_2", "2e0", "x", "", " 2", "٣"]
FLOAT_TEXT = ["0.5", "5e-1", ".5", "0.25", "2.5E-1", "1", "0", "-0", "1e-400", "1_0",
              "nan", "inf", "-inf", "", "x", "٠.٥"]
VALID_COEFFS2 = [["0.5", "0.5"], ["0.5", "0.3", "0.2"], ["0.25", "0.25", "0.5"],
                 ["0.1", "0.4", "0.2", "0.3"], ["5e-1", "٠.٥"]]


@st.composite
def number_lists(draw):
    if draw(st.booleans()):
        return ",".join(draw(st.sampled_from(VALID_COEFFS2)))
    return ",".join(draw(st.lists(st.sampled_from(FLOAT_TEXT), max_size=4)))


@st.composite
def command_lines(draw):
    """An argv from the CLI's grammar, and the format an answer would print in."""
    command = draw(st.sampled_from(["run", "compare", "verify", "bogus", None]))
    options = []

    def chance(tenths):  # hypothesis leans to 0, so 0 means "no"
        return draw(st.integers(0, 9)) >= 10 - tenths

    def maybe(name, values, omit_tenths=2):
        if not chance(omit_tenths):
            value = draw(values)
            options.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
            return value
        return None

    fmt = command
    if command == "run":
        maybe("--protocol", st.sampled_from(["single-photon", "polarization", "nope"]), 1)
        maybe("--coeffs2", number_lists(), 1)
        maybe("--phases", number_lists(), 6)
        fmt = maybe("--format", st.sampled_from(["text", "json", "csv", "xml"]), 5) or "text"
    elif command == "compare":
        maybe("--points", st.sampled_from(INT_TEXT))
        pairs = draw(st.lists(
            st.lists(st.sampled_from(INT_TEXT[:8]), min_size=1, max_size=3).map(",".join),
            min_size=1, max_size=3))
        form = draw(st.sampled_from(["omit", "spaced", "="]))
        if form != "omit":
            options.append(["--caps", *pairs] if form == "spaced" else [f"--caps={pairs[0]}"])
    elif command == "verify":
        # always small: the default of 1000 trials would blow the time budget
        maybe("--trials", st.sampled_from(["1", "2", "0_2", "1e0", "0", "-1", "x", "٢"]), 0)
        small = st.sampled_from(["2", "3", "4", "٣"])
        odd = st.sampled_from(["1", "2", "3", "-0", "x", ""])
        maybe("--n-range", st.one_of(st.tuples(small, small),
                                     st.lists(odd, min_size=1, max_size=3)).map(",".join))
        maybe("--seed", st.sampled_from(INT_TEXT), 5)
        maybe("--coeffs2", number_lists(), 5)
    if chance(1):
        options.append(["--bogus"])
    argv = [] if command is None else [command]
    for option in draw(st.permutations(options)):
        argv.extend(option)
    return argv, fmt


def _assert_printed_as(fmt, out):
    if fmt in ("json", "verify"):
        json.loads(out)
    elif fmt == "compare":
        lines = out.splitlines()
        assert lines[0] == "alpha,curve,probability"
        assert lines[-1].startswith("# omitted=")
    else:
        assert out.startswith("field,value\n" if fmt == "csv" else "protocol: ")


@settings(max_examples=300)
@given(command_lines(),
       st.sampled_from([None, "0", "7", "-3", "1_0", "٣", "zz", ""]))
def test_every_command_line_gets_an_exit_code(command_line, env_seed):
    argv, fmt = command_line
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("ECP_SEED", None)
        if env_seed is not None:
            os.environ["ECP_SEED"] = env_seed
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"main raised SystemExit({exc.code!r})") from None
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    else:
        assert err.getvalue() == ""
        _assert_printed_as(fmt, out.getvalue())
