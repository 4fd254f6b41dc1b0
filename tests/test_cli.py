"""Command-line interface: exit codes, output files, determinism."""

import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import cli, glm, onestep, problems, spectra
from glmstab.errors import ConfigError


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _strict_json(path):
    """The parsed JSON file; NaN, Infinity and -Infinity tokens raise ValueError."""
    def reject(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_exit_code_config_errors(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert cli.main(["run", "--method", "rk19", "--h", "0.1", "--tfinal", "1",
                     "--out", out]) == 2
    assert cli.main(["run", "--h", "-0.1", "--tfinal", "1", "--out", out]) == 2
    assert cli.main(["run", "--tfinal", "1", "--out", out]) == 2          # missing --h
    assert cli.main(["run", "--h", "0.1", "--tfinal", "1", "--out", out,
                     "--config", "{not json"]) == 2
    assert cli.main(["run", "--h", "0.1", "--tfinal", "1", "--out", out,
                     "--config", str(tmp_path / "missing.json")]) == 2
    # spans that are empty, reversed or round to no step, in every integrating command
    assert cli.main(["spectrum", "--h", "-0.1", "--tfinal", "1", "--out", out]) == 2
    assert cli.main(["converge", "--tfinal", "0.001", "--out", out]) == 2
    assert cli.main(["converge", "--tfinal", "-1", "--out", out]) == 2
    assert cli.main(["run", "--h", "0.1", "--tfinal", "0.01", "--out", out]) == 2
    assert cli.main(["spectrum", "--h", "0.1", "--tfinal", "4", "--oracle-h", "-0.1",
                     "--out", out]) == 2
    # estimator windows that do not fit the requested span, checked before integrating
    assert cli.main(["spectrum", "--h", "0.1", "--tfinal", "2", "--out", out]) == 2
    assert cli.main(["spectrum", "--h", "0.1", "--tfinal", "4", "--H", "0.1",
                     "--out", out]) == 2
    assert cli.main(["spectrum", "--h", "0.1", "--tfinal", "4", "--H", "nan",
                     "--out", out]) == 2
    assert cli.main(["run", "--h", "0.1", "--tfinal", "4", "--n0", "100", "--out", out]) == 2
    assert cli.main(["run", "--h", "0.1", "--tfinal", "4", "--n0", "-1", "--out", out]) == 2
    # a step so small that the span holds no countable number of steps
    assert cli.main(["run", "--h", "1e-320", "--tfinal", "1", "--out", out]) == 2
    # a step count too large to hold
    assert cli.main(["run", "--h", "1e-300", "--tfinal", "1", "--out", out]) == 2
    # config values that are not numbers, and a key the problem does not have (the
    # resonant step is given as its rate, omega_rate = 2 pi / h)
    base = {"a1": 1.2, "a2": 1.2, "b1": -0.14, "b2": -0.15, "beta": 10.0}
    for bad in ({"a1": "x"}, {"a1": None}, {"t0": "x"}, {"x0": "ab"}, {"resonant_h": 0.5}):
        assert cli.main(["run", "--h", "0.1", "--tfinal", "1", "--out", out,
                         "--config", json.dumps({**base, **bad})]) == 2
    # config values that are not finite (JSON's NaN and Infinity tokens)
    for bad in ({"a1": math.nan}, {"beta": math.inf}, {"omega_rate": math.nan},
                {"x0": [math.nan, 0.0]}):
        assert cli.main(["run", "--h", "0.1", "--tfinal", "4", "--out", out,
                         "--config", json.dumps({**base, **bad})]) == 2, bad
    # a counterexample run of no steps
    assert cli.main(["counterexample", "--steps", "0", "--out", out]) == 2
    assert cli.main(["counterexample", "--steps", "-1", "--out", out]) == 2
    # a subnormal step, positive but with an infinite frequency 2 pi / h
    assert cli.main(["counterexample", "--h", "1e-320", "--out", out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 29 and all(ln.startswith("config error:") for ln in lines)
    assert sum("problem config has unknown keys" in ln for ln in lines) == 1


def test_counterexample_bad_input_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    for bad in (["--h", "nan"], ["--h", "-0.5"], ["--h", "0"], ["--h", "inf"],
                ["--D", "nan"], ["--L", "inf"], ["--D=-inf"]):
        assert cli.main(["counterexample", *bad, "--out", out]) == 2, bad
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7 and all(ln.startswith("config error: --h must be") for ln in err)
    # finite input outside the stability gap stays a numerical failure
    for outside in (["--D", "3.0"], ["--D", "-0.3"], ["--h", "1e6"]):
        assert cli.main(["counterexample", *outside, "--out", out]) == 3, outside
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("ParameterOutsideGap" in ln for ln in err)


def test_row_options_checked_before_integrating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking the row options")

    monkeypatch.setattr(glm, "run_linear", never)
    tab = glm.get_tableau("bdf2")
    params = problems.RotatingCosineParams(**cli.TABLE1_PROBLEM)
    for bad, match in ((dict(lte_scale="per-step"), "lte scale"),
                       (dict(denominator="t1"), "denominator mode"),
                       (dict(sum_start="end"), "sum_start mode")):
        with pytest.raises(ConfigError, match=match):
            cli.experiment_row(tab, params, 0.1, 4.0, **bad)


def test_table1_heap_peak(tmp_path, capsys):
    # Phi is consumed per chunk and figure1.csv written per block of lines: the
    # heap peak stays below 10 MB (it was 23.2 MB with the whole series kept)
    tracemalloc.start()
    try:
        assert cli.main(["table1", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"table1 heap peak {peak / 1e6:.1f} MB"
    capsys.readouterr()


def test_oracle_step_checked_before_integrating(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --oracle-h")

    monkeypatch.setattr(glm, "run_linear", never)
    for bad in ("-0.1", "0", "nan", "inf", "1e-320", "500"):
        assert cli.main(["spectrum", "--h", "0.002", "--tfinal", "200", "--oracle-h", bad,
                         "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 6 and all(ln.startswith("config error: --oracle-h:")
                                   for ln in lines)


def test_oracle_step_count_too_large_to_hold(tmp_path, capsys, monkeypatch):
    # 2e302 oracle steps pass the span check but no array can hold them: exit 2, no
    # traceback, found by the oracle before the 1e5-step main run is integrated
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking the oracle's step count")

    monkeypatch.setattr(glm, "run_linear", never)
    out = tmp_path / "o"
    assert cli.main(["spectrum", "--h", "0.002", "--tfinal", "200", "--oracle-h", "1e-300",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --oracle-h: cannot hold an oracle run of 2e+302 steps")
    assert not out.exists()


def test_run_step_count_too_large_to_hold(tmp_path, capsys):
    # 1e300 steps pass the span check but cannot be held: a short message, exit 2
    out = tmp_path / "o"
    assert cli.main(["run", "--h", "1e-300", "--tfinal", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot hold a run of 1e+300 steps")
    assert len(err) < 200
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tfinal", ["1e300", "1e15"])
def test_converge_span_too_large_to_hold(tfinal, tmp_path, capsys):
    # the step count passes the span check, but its exact-solution times cannot be
    # held: exit 2 with run's message, no traceback, no output directory
    out = tmp_path / "o"
    assert cli.main(["converge", "--tfinal", tfinal, "--out", str(out)]) == 2
    steps = float(tfinal) / cli.CONVERGE_H["bdf2"][0]      # at its first step size
    assert capsys.readouterr().err.startswith(
        f"config error: cannot hold a run of {steps:.3g} steps")
    assert not out.exists()


def test_reference_start_samples_the_reference(monkeypatch):
    # the start supervector equals per-time reference samples at t0, t0 + h, ...
    tab = glm.get_tableau("bdf2")
    params = problems.RotatingCosineParams(**cli.TABLE1_PROBLEM)
    h, t0, x0 = 0.05, 0.7, (0.6, -0.8)
    starts, run_linear = [], glm.run_linear

    def spy(tab, prob, x0s, *args, **kwargs):
        starts.append(x0s.copy())
        return run_linear(tab, prob, x0s, *args, **kwargs)

    monkeypatch.setattr(glm, "run_linear", spy)
    cli.experiment_row(tab, params, h, t0 + 10 * h, t0=t0, x0=x0, start="reference")
    want = np.concatenate([problems.reference_batch(params, [t0 + i * h], x0=x0, t0=t0)[0]
                           for i in range(tab.k)])
    assert len(starts) == 1 and np.array_equal(starts[0], want)


def test_every_command_integrates_through_one_path(tmp_path, capsys, monkeypatch):
    # every glm.run_linear call of every command is made by cli._integrate, so a
    # check or a stage timer there covers them all
    callers, run_linear = [], glm.run_linear

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return run_linear(*args, **kwargs)

    monkeypatch.setattr(glm, "run_linear", spy)
    short = ["--h", "0.1", "--tfinal", "6"]
    for argv in (["run", *short], ["spectrum", *short, "--mode", "w"],
                 ["spectrum", *short, "--mode", "frame", "--oracle-h", "0.05"],
                 *(["counterexample", "--method", m, "--steps", "5"]
                   for m in ("bdf2", "ab2", "be")),
                 ["converge", "--tfinal", "0.2"]):
        callers.clear()
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0, argv
        assert callers and all(c is cli._integrate.__code__ for c in callers), argv
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_non_finite_start_exits_3(tmp_path, capsys):
    # D = 1e300 overflows ab2's RK4 start to [1, nan]: exit 3 before either run,
    # naming the start, and no overflow warning before it
    out = tmp_path / "cx"
    assert cli.main(["counterexample", "--method", "ab2", "--D", "1e300", "--L",
                     "-0.91", "--h", "0.1", "--steps", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: NumericalError: the start "
                                       "supervector is not finite: [1.0, nan]\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:offsets should satisfy")   # the inputs' own offsets
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, err", [
    # x0 on the axis: the closed form, e^{800 t} out of range from t = 1
    ({"b1": 800}, "NumericalError: the exact solution is not finite at t=1.0"),
    # off the axis: the quadrature, e^{800 t} in the rotated second component
    ({"b2": 800, "x0": [0.6, 0.8]}, "QuadratureUnderResolved: panel doubling moved "
                                    "the result by nan (rel) at t=1.0"),
], ids=["closed-form", "quadrature"])
def test_exact_solution_out_of_range_exits_3(cfg, err, tmp_path, capsys):
    config = json.dumps({"a1": 1.2, "a2": 1.2, "b1": -0.14, "b2": -0.15, "beta": 10,
                         **cfg})
    out = tmp_path / "o"
    assert cli.main(["run", "--config", config, "--h", "0.5", "--tfinal", "2",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {err}\n"
    assert not out.exists()


def test_exit_code_numerical_failure(tmp_path, capsys):
    out = str(tmp_path / "o")
    # D+L outside the method's stability gap
    assert cli.main(["counterexample", "--D", "3.0", "--L", "-0.1",
                     "--out", out]) == 3
    # the window fits the 600 requested steps, but the run diverges after 60
    growing = json.dumps({"a1": 15.0, "a2": 15.0, "b1": -0.05, "b2": -0.55, "beta": 1.0})
    assert cli.main(["spectrum", "--config", growing, "--h", "0.1", "--tfinal", "60",
                     "--H", "5", "--out", out]) == 3
    assert "WindowOutOfRange" in capsys.readouterr().err


def test_counterexample_exact_out_of_range_exits_3(tmp_path, capsys):
    # the oscillatory run is cut at step 5, and the exact column overflows at t = 2:
    # NumericalError names that time, with no overflow warning first (the suite
    # turns RuntimeWarnings into errors), and no file is written
    out = tmp_path / "o"
    assert cli.main(["counterexample", "--method", "ab2", "--D", "0.5", "--L", "400",
                     "--h", "0.5", "--steps", "10", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: NumericalError: the exact "
                                       "solution is not finite at t=2.0\n")
    assert not out.exists()


def test_run_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["run", "--h", "0.1", "--tfinal", "4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "run.csv")
    assert header == ["n", "t", "norm_x", "lte", "running_mu"]
    assert len(rows) == 41
    assert rows[0][3] != "" and rows[0][4] == ""      # no running average at n=0
    assert rows[-1][3] == "" and rows[-1][4] != ""    # no defect after the last step
    report = json.loads((out / "run_report.json").read_text())
    assert report["n_steps"] == 40
    assert report["lte_mean"] <= report["lte_max"]
    assert not report["diverged"]
    capsys.readouterr()


def test_short_run_writes_null_tau_max(tmp_path, capsys):
    # one restart defect gives no ratio: tau_max is NaN, written as null
    out = tmp_path / "short"
    assert cli.main(["run", "--h", "0.1", "--tfinal", "0.1", "--out", str(out)]) == 0
    report = _strict_json(out / "run_report.json")
    assert report["n_steps"] == 1
    assert report["tau_max"] is None
    capsys.readouterr()


def test_run_config_file_and_inline_match(tmp_path, capsys):
    cfg = {"a1": 1.0, "a2": 1.0, "b1": -0.2, "b2": -0.3, "beta": 2.0}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(cfg))
    rc1 = cli.main(["run", "--h", "0.1", "--tfinal", "2", "--config", str(path),
                    "--out", str(tmp_path / "a")])
    rc2 = cli.main(["run", "--h", "0.1", "--tfinal", "2", "--config", json.dumps(cfg),
                    "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a" / "run.csv").read_bytes() == \
        (tmp_path / "b" / "run.csv").read_bytes()
    capsys.readouterr()


def test_config_file_not_an_object(tmp_path, capsys):
    # a file holding a JSON array is read, then rejected; written inline, "[1, 2]"
    # would be taken for a path
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["run", "--h", "0.1", "--tfinal", "1", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_run_deterministic(tmp_path, capsys):
    for sub in ("x", "y"):
        cli.main(["run", "--h", "0.05", "--tfinal", "3", "--out",
                  str(tmp_path / sub)])
    assert (tmp_path / "x" / "run.csv").read_bytes() == \
        (tmp_path / "y" / "run.csv").read_bytes()
    assert (tmp_path / "x" / "run_report.json").read_bytes() == \
        (tmp_path / "y" / "run_report.json").read_bytes()
    capsys.readouterr()


def test_counterexample_outputs(tmp_path, capsys):
    out = tmp_path / "cx"
    rc = cli.main(["counterexample", "--steps", "50", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "counterexample_report.json").read_text())
    assert report["growth_factor"] > 10.0
    assert report["exact_decay_factor"] < 1.0
    assert report["max_oscillatory_frozen_deviation"] <= 1e-12
    header, rows = _read_csv(out / "counterexample.csv")
    assert header == ["n", "t", "x_oscillatory", "x_frozen", "x_exact"]
    assert len(rows) == 51
    assert "diverged" not in report and "requested_steps" not in report
    assert "divergence guard" not in capsys.readouterr().out


def test_counterexample_cut_short_says_so(tmp_path, capsys):
    out = tmp_path / "cx"
    assert cli.main(["counterexample", "--steps", "2000", "--out", str(out)]) == 0
    report = json.loads((out / "counterexample_report.json").read_text())
    assert report["diverged"] is True and report["requested_steps"] == 2000
    assert report["steps"] == 277
    assert len(_read_csv(out / "counterexample.csv")[1]) == 278
    printed = capsys.readouterr().out
    for name in ("oscillatory", "frozen"):
        assert f"stopped the {name} run at step 278 of 2000" in printed


def test_counterexample_runs_cut_at_different_steps(tmp_path, capsys, monkeypatch):
    # a tighter guard on the second (frozen) run stops it well before the first
    calls = []
    run_linear = glm.run_linear

    def guarded(*args, **kwargs):
        calls.append(None)
        with mock.patch.object(glm, "DIVERGENCE_FACTOR", 1e12 if len(calls) == 1 else 1e6):
            return run_linear(*args, **kwargs)

    monkeypatch.setattr(glm, "run_linear", guarded)
    out = tmp_path / "cx"
    assert cli.main(["counterexample", "--steps", "2000", "--out", str(out)]) == 0
    report = json.loads((out / "counterexample_report.json").read_text())
    printed = capsys.readouterr().out
    frozen_at = int(printed.split("stopped the frozen run at step ")[1].split()[0])
    assert "stopped the oscillatory run at step 278 of 2000" in printed
    assert report["steps"] == frozen_at - 1 < 277 and report["diverged"] is True
    assert report["max_oscillatory_frozen_deviation"] == 0.0
    assert len(_read_csv(out / "counterexample.csv")[1]) == frozen_at


def test_counterexample_cut_at_first_step(tmp_path, capsys):
    # both runs blow past the guard in their first step: no common step, so no
    # per-period rate, and no 0 / 0 (the suite turns RuntimeWarnings into errors)
    out = tmp_path / "cx"
    argv = ["counterexample", "--method", "ab2", "--D", "1e14", "--L", "0", "--h", "0.5"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    report = _strict_json(out / "counterexample_report.json")
    assert report["steps"] == 0 and report["diverged"] is True
    assert report["growth_per_period"] is None and report["growth_factor"] == 1.0
    assert len(_read_csv(out / "counterexample.csv")[1]) == 1
    assert "stopped the oscillatory run at step 1 of 200" in capsys.readouterr().out


def test_spectrum_bundle_schema(tmp_path, capsys):
    out = tmp_path / "sp"
    rc = cli.main(["spectrum", "--h", "0.1", "--tfinal", "10", "--mode", "w",
                   "--denominator", "N0", "--out", str(out)])
    assert rc == 0
    bundle = json.loads((out / "spectrum.json").read_text())
    for key in ("mode", "eta", "mu", "alpha", "beta", "window", "h",
                "denominator_mode"):
        assert key in bundle
    assert bundle["mode"] == "w"
    assert bundle["denominator_mode"] == "N0"
    assert bundle["alpha"][0] <= bundle["beta"][0]
    assert bundle["eta"][0] <= bundle["mu"][0] + 1e-12
    capsys.readouterr()


def test_spectrum_frame_mode_with_oracle(tmp_path, capsys):
    out = tmp_path / "spf"
    rc = cli.main(["spectrum", "--h", "0.1", "--tfinal", "8", "--mode", "frame",
                   "--oracle-h", "0.01", "--out", str(out)])
    assert rc == 0
    bundle = json.loads((out / "spectrum.json").read_text())
    assert len(bundle["mu"]) == 4            # k*d modes for the two-step method
    assert len(bundle["oracle_mean_rates"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["w", "frame"])
def test_spectrum_sum_start_reaches_mu_appr(tmp_path, capsys, mode):
    h, t_final = 0.1, 10.0
    out = tmp_path / mode
    assert cli.main(["spectrum", "--mode", mode, "--sum-start", "window", "--h", str(h),
                     "--tfinal", str(t_final), "--out", str(out)]) == 0
    bundle = json.loads((out / "spectrum.json").read_text())
    tab = glm.get_tableau("bdf2")
    prob = problems.rotating_cosine_problem(
        problems.RotatingCosineParams(**cli.TABLE1_PROBLEM))
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, tab.k)
    traj, phis = glm.run_linear(tab, prob, x0s, 100, h, keep_transitions=True)
    if mode == "frame":
        trail = spectra.qr_advance_series(spectra.new_matrix_trail(4, h), phis)
    else:
        w = onestep.extract_w(traj, onestep.spectral_split(tab))
        trail = spectra.vector_trail_from_values(w.values, h)
    want = spectra.mu_appr(trail, 50, 50, sum_start="window")
    origin = spectra.mu_appr(trail, 50, 50)
    assert bundle["mu_appr"] == want.mu.tolist()
    assert not np.array_equal(want.mu, origin.mu)
    capsys.readouterr()


def test_flags_only_where_read(capsys):
    # counterexample and converge estimate no exponent: argparse rejects the flags
    for argv in (["converge", "--sum-start", "window"],
                 ["counterexample", "--denominator", "N0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_converge_reports_slopes(tmp_path, capsys):
    out = tmp_path / "cv"
    rc = cli.main(["converge", "--method", "be", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "converge_report.json").read_text())
    assert report["global_slope"] == pytest.approx(1.0, abs=0.25)
    assert report["lte_slope"] == pytest.approx(2.0, abs=0.25)
    header, rows = _read_csv(out / "converge.csv")
    assert header == ["h", "global_error", "lte_max"]
    assert len(rows) == 3
    capsys.readouterr()


def test_converge_samples_the_exact_solution_once_per_step(tmp_path, capsys,
                                                           monkeypatch):
    # one reference_batch call per step size serves the start, the defects and the
    # end point: on t_0 .. t_{n_f+k-1}
    calls, real = [], problems.reference_batch

    def spy(params, ts, *args, **kwargs):
        calls.append(np.asarray(ts))
        return real(params, ts, *args, **kwargs)

    monkeypatch.setattr(problems, "reference_batch", spy)
    assert cli.main(["converge", "--method", "bdf2", "--out", str(tmp_path)]) == 0
    for ts, h in zip(calls, cli.CONVERGE_H["bdf2"], strict=True):
        n_f = glm.span_steps(h, 2.0, 0.0)
        assert np.array_equal(ts, h * np.arange(n_f + 2))
    capsys.readouterr()


def test_csv_float_format(tmp_path, capsys):
    out = tmp_path / "fmt"
    cli.main(["run", "--h", "0.1", "--tfinal", "1", "--out", str(out)])
    _, rows = _read_csv(out / "run.csv")
    val = rows[1][1]
    assert "e" in val
    mantissa = val.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17
    capsys.readouterr()


# The environment in which every digest of tests/data/cli_digests.json and
# perfbench/digests.json was last checked to match. numpy picks its exp, sin, cos
# and log10 kernels by CPU feature at run time, and they differ in the last bits.
DIGEST_ENV = Path(__file__).parent / "data" / "digest_env.json"


def _running_env() -> dict:
    """The entries of DIGEST_ENV, read from the running process."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            **{lib: f"{deps[lib]['name']} {deps[lib]['version']}"
               for lib in ("blas", "lapack")},
            "cpu_features": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


def _digest_env_note(record=None) -> str:
    """Whether the running environment is the recorded one, and which entries differ."""
    record = json.loads(DIGEST_ENV.read_text()) if record is None else record
    env = _running_env()
    differ = [f"{key}: recorded {record.get(key)!r}, running {value!r}"
              for key, value in env.items() if record.get(key) != value]
    if not differ:
        return ("the running environment matches the record in "
                f"{DIGEST_ENV.name}: a changed digest is a changed output")
    return (f"the running environment differs from the record in {DIGEST_ENV.name} "
            f"({'; '.join(differ)}): a changed digest may come from the environment")


@pytest.mark.filterwarnings("ignore:offsets should satisfy")   # as-printed reading
def test_paper_tables_byte_identical(tmp_path, capsys):
    # the recorded sha256 of the paper-table CSVs, shared with the benchmark
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    want = json.loads(digests.read_text())
    calls = {"table1": ["table1"],
             "table2-as-printed": ["table2", "--b1-reading", "as-printed"],
             "table2-corrected": ["table2", "--b1-reading", "corrected"]}
    got = {}
    for key, argv in calls.items():
        assert cli.main(argv + ["--out", str(tmp_path / key)]) == 0
        for path in (tmp_path / key).iterdir():
            got[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == want, _digest_env_note()
    capsys.readouterr()


def test_cli_outputs_match_recorded_digests(tmp_path, capsys):
    # sha256 of counterexample and converge outputs at their defaults, recorded
    # before the stability-gap scan was batched; run and spectrum outputs,
    # recorded before the CSV writer and the propagation loop were rewritten; the
    # ab2 and be converge runs and the N0 / window readings, recorded before the
    # commands shared one integration path; counterexample-ab2's report, re-recorded
    # when its infinite stability_gap became null; the be and ab2 w-sequences,
    # recorded before spectral_split lost its k == 1 case and the CSV writer its str
    # round trip. Every JSON output is strict JSON.
    want = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
    calls = {f"counterexample-{m}": ["counterexample", "--method", m]
             for m in ("bdf2", "ab2", "be")}
    calls.update({f"converge-{m}": ["converge", "--method", m]
                  for m in ("bdf2", "ab2", "be")})
    cfg = json.dumps({"a1": 1.2, "a2": 1.2, "b1": -0.14, "b2": -0.15, "beta": 10.0,
                      "x0": [0.6, -0.8]})
    span = ["--h", "0.05", "--tfinal", "20"]
    calls["run-default"] = ["run"] + span
    calls["run-reference"] = ["run", "--config", cfg, "--start", "reference",
                              "--lte-scale", "defect", "--n0", "10"] + span
    calls["spectrum-frame"] = ["spectrum", "--mode", "frame", "--oracle-h", "0.01"] + span
    calls["spectrum-w"] = ["spectrum", "--mode", "w"] + span
    calls.update({f"spectrum-w-{m}": ["spectrum", "--mode", "w", "--method", m] + span
                  for m in ("be", "ab2")})
    calls["spectrum-w-N0"] = ["spectrum", "--mode", "w", "--denominator", "N0"] + span
    calls["run-N0-window"] = ["run", "--denominator", "N0", "--sum-start", "window"] + span
    got = {}
    for key, argv in calls.items():
        assert cli.main(argv + ["--out", str(tmp_path / key)]) == 0
        for path in (tmp_path / key).iterdir():
            got[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            if path.suffix == ".json":
                _strict_json(path)
    assert got == want, _digest_env_note()
    capsys.readouterr()


def test_digest_env_note_names_differing_entries():
    record = json.loads(DIGEST_ENV.read_text())
    root = Path(__file__).resolve().parents[1]
    assert sorted(record["covers"]) == ["perfbench/digests.json",
                                        "tests/data/cli_digests.json"]
    assert all((root / path).is_file() for path in record["covers"])
    assert set(record) - {"covers"} == set(_running_env())
    note = _digest_env_note(dict(record, numpy="0.0", cpu_features=[]))
    assert note.startswith("the running environment differs from the record")
    assert "numpy: recorded '0.0', running " in note
    assert "cpu_features: recorded [], running " in note


# -- the CSV line formatters against csv.writer ----------------------------------

def _old_fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return "%.16e" % x


def _old_log10(v) -> float:
    return math.log10(max(float(v), 1e-300))


def _old_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


EDGE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     9.9e-301, math.nan, -math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(key=EDGE_FLOATS,
       rows=st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), min_size=2,
                     max_size=30))
def test_csv_lines_match_csv_writer(key, rows):
    times, norms, series = (np.array(col) for col in zip(*rows))
    lte, running = series[:-1], series[1:]
    m = len(lte)
    old_figure = [[_old_fmt(key), n, _old_fmt(times[n]), _old_fmt(_old_log10(lte[n])),
                   _old_fmt(_old_log10(norms[n]))] for n in range(m)]
    old_run = [[n, _old_fmt(times[n]), _old_fmt(norms[n]),
                _old_fmt(lte[n]) if n < m else "",
                _old_fmt(running[n - 1]) if n >= 1 else ""] for n in range(m + 1)]
    header = ["a", "b", "c", "d", "e"]
    # the writers yield joined blocks of lines: at the default block size and at
    # blocks small enough for the rows to span several
    for block in (cli._LINES_PER_BLOCK, 1, 3):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_LINES_PER_BLOCK", block):
            for name, old, new in (
                    ("figure", old_figure, cli._figure_lines(key, times, lte, norms)),
                    ("run", old_run, cli._run_lines(times, norms, lte, running))):
                blocks = list(new)
                assert all(0 < b.count(b"\r\n") <= block for b in blocks)
                want, got = (os.path.join(tmp, name + ext) for ext in (".want", ".got"))
                _old_write_csv(want, header, old)
                cli._write_csv(got, header, iter(blocks))
                assert Path(got).read_bytes() == Path(want).read_bytes()


# -- the vectorized field formatters against bytes % ---------------------------

def _fields(start, *columns):
    """The fields of the lines _csv_blocks writes for the columns from index start:
    one list per line, the index first."""
    lines = b"".join(cli._csv_blocks(b"", start, *columns)).split(b"\r\n")
    assert lines.pop() == b""
    return [line.split(b",") for line in lines]


def _assert_e16_matches(values):
    values = np.asarray(values, dtype=float)
    got = [line[1] for line in _fields(0, values)]
    want = [b"%.16e" % v for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def _named_floats():
    named = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e-6, np.nextafter(1e-6, 0.0), 1e-7,
             1.7976931348623157e308, 1e100, -1e-100, 1e-300, -9.99e-301, 1e22, 1e23]
    for k in range(-8, 19):
        p = 10.0 ** k
        named += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    # exact ties at 17 digits (1e15 + j/4, odd j: the 17th digit is followed by 5)
    named += [1e15 + 0.25 * (2 * j + 1) for j in range(400)]
    # just below 1e17, the top of the scaled range; 1e-14, a double below its power
    # of ten whose 17 digits carry into the exponent
    named += [1e17 - 16.0 * j for j in range(1, 8)] + [np.nextafter(1e17, 0.0), 1e-14]
    named += [9.9999999999999995e-1, 9.99999999999999999e15, 99999999999999984.0]
    return np.array(named + [-v for v in named])


def test_e16_field_named_values():
    _assert_e16_matches(_named_floats())


def test_e16_field_drawn_values():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    _assert_e16_matches(bits)                        # every exponent, nan and inf
    scale = 10.0 ** rng.integers(-9, 19, size=100_000)
    _assert_e16_matches(rng.uniform(-10.0, 10.0, size=100_000) * scale)


def test_e16_field_signaling_nan_under_avx2_kernels():
    # numpy's AVX2-level log10 flags a signaling NaN as invalid, the AVX512 one
    # does not; the setting acts only on the child process that reads it. Warnings
    # are errors from after the imports on, as under -W error, so that a host where
    # numpy warns that it cannot disable those features still runs the check
    code = ("import sys, warnings, numpy as np; from glmstab import cli; "
            "warnings.simplefilter('error'); "
            "snan = np.array([0x7ff0000000000001], np.uint64).view(float); "
            "sys.stdout.buffer.write(b''.join(cli._csv_blocks(b'', 0, snan)))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert (out.returncode, out.stdout) == (0, b"0,nan\r\n"), out.stderr.decode()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_e16_field_bit_patterns(patterns):
    _assert_e16_matches(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_int_field_matches_percent():
    # the step index across every digit-count boundary up to 19 digits, in one
    # field width and across blocks, and at the 19-digit top of int64
    starts = [0, 2 ** 63 - 5] + [10 ** p - 2 for p in range(1, 19)]
    for start, m in [(s, 4) for s in starts] + [(0, 20_001), (9_990, 5_000)]:
        got = [line[0] for line in _fields(start, np.zeros(m))]
        assert got == [b"%d" % n for n in range(start, start + m)]


@pytest.mark.parametrize("rows", [1, 3, 4096, 5000])
def test_csv_blocks_match_percent_lines(rows):
    rng = np.random.default_rng(rows)
    pool = np.concatenate([_named_floats(), rng.normal(size=rows)])
    cols = [rng.choice(pool, size=rows) for _ in range(3)]
    for prefix, start in ((b"", 0), (b"7.5000000000000000e-01,", 9998)):
        blocks = list(cli._csv_blocks(prefix, start, *cols))
        assert [b.count(b"\r\n") for b in blocks] == [min(rows - lo, 4096)
                                                      for lo in range(0, rows, 4096)]
        want = b"".join(prefix + b"%d,%.16e,%.16e,%.16e\r\n" % (start + i, *row)
                        for i, row in enumerate(zip(*(c.tolist() for c in cols))))
        assert b"".join(blocks) == want


def test_counterexample_csv_same_at_any_block_size(tmp_path, capsys):
    argv = ["counterexample", "--steps", "7"]
    assert cli.main(argv + ["--out", str(tmp_path / "default")]) == 0
    want = (tmp_path / "default" / "counterexample.csv").read_bytes()
    for block in (1, 3):
        with mock.patch.object(cli, "_LINES_PER_BLOCK", block):
            assert cli.main(argv + ["--out", str(tmp_path / str(block))]) == 0
        assert (tmp_path / str(block) / "counterexample.csv").read_bytes() == want
    capsys.readouterr()
