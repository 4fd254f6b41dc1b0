"""Command-line interface: exit codes, output files, determinism."""

import csv
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import cli


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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
    capsys.readouterr()


def test_exit_code_numerical_failure(tmp_path, capsys):
    out = str(tmp_path / "o")
    # D+L outside the method's stability gap
    assert cli.main(["counterexample", "--D", "3.0", "--L", "-0.1",
                     "--out", out]) == 3
    capsys.readouterr()


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
    capsys.readouterr()


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


def test_csv_float_format(tmp_path, capsys):
    out = tmp_path / "fmt"
    cli.main(["run", "--h", "0.1", "--tfinal", "1", "--out", str(out)])
    _, rows = _read_csv(out / "run.csv")
    val = rows[1][1]
    assert "e" in val
    mantissa = val.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17
    capsys.readouterr()


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
    assert got == want
    capsys.readouterr()


def test_cli_outputs_match_recorded_digests(tmp_path, capsys):
    # sha256 of counterexample and converge outputs at their defaults, recorded
    # before the stability-gap scan was batched; run and spectrum outputs,
    # recorded before the CSV writer and the propagation loop were rewritten
    want = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
    calls = {f"counterexample-{m}": ["counterexample", "--method", m]
             for m in ("bdf2", "ab2", "be")}
    calls["converge-bdf2"] = ["converge", "--method", "bdf2"]
    cfg = json.dumps({"a1": 1.2, "a2": 1.2, "b1": -0.14, "b2": -0.15, "beta": 10.0,
                      "x0": [0.6, -0.8]})
    span = ["--h", "0.05", "--tfinal", "20"]
    calls["run-default"] = ["run"] + span
    calls["run-reference"] = ["run", "--config", cfg, "--start", "reference",
                              "--lte-scale", "defect", "--n0", "10"] + span
    calls["spectrum-frame"] = ["spectrum", "--mode", "frame", "--oracle-h", "0.01"] + span
    calls["spectrum-w"] = ["spectrum", "--mode", "w"] + span
    got = {}
    for key, argv in calls.items():
        assert cli.main(argv + ["--out", str(tmp_path / key)]) == 0
        for path in (tmp_path / key).iterdir():
            got[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == want
    capsys.readouterr()


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
    with tempfile.TemporaryDirectory() as tmp:
        for name, old, new in (
                ("figure", old_figure, cli._figure_lines(key, times, lte, norms)),
                ("run", old_run, cli._run_lines(times, norms, lte, running))):
            want, got = (os.path.join(tmp, name + ext) for ext in (".want", ".got"))
            _old_write_csv(want, header, old)
            cli._write_csv(got, header, new)
            assert Path(got).read_bytes() == Path(want).read_bytes()
