"""Smoke test of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once at the tiny size, shows that a corrupted output is
counted as a failure, checks the result line against BENCHMARK.json, and
checks that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import worker  # noqa: F401  (puts the checkout's src/ first on sys.path)
from tracer import METRICS
from workloads import WORKLOADS

# the as-printed table-2 offsets warn on every row
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    ops = WORKLOADS[name](3, "tiny", str(tmp_path))
    _, outputs = worker.run_pass(ops)
    assert worker.check_pass(ops, outputs) == []


def test_corrupted_table_is_counted(tmp_path):
    ops = WORKLOADS["paper_tables"](1, "tiny", str(tmp_path))
    _, outputs = worker.run_pass(ops)
    with open(tmp_path / "table1" / "figure1.csv", "r+b") as fh:
        fh.seek(1000)
        byte = fh.read(1)
        fh.seek(1000)
        fh.write(b"7" if byte != b"7" else b"8")
    failures = worker.check_pass(ops, outputs)
    assert len(failures) == 1 and failures[0].startswith("table1: digest mismatch in")


def test_corrupted_frame_and_raising_op_are_counted(tmp_path):
    ops = WORKLOADS["long_frame_trail"](1, "tiny", str(tmp_path))
    _, outputs = worker.run_pass(ops)
    outputs[-1][1].frame[0, 0] += 1e-9
    failures = worker.check_pass(ops, outputs)
    assert len(failures) == 1
    assert failures[0].startswith("estimators: final frame orthonormality")

    ops = WORKLOADS["oracle_separation"](1, "tiny", str(tmp_path))
    ops[0].run = lambda state: 1 / 0            # the oracle raises: its users fail too
    result = worker.measure(ops, 0.0, 0)
    passes = len(result["wall_s"])
    assert result["attempted"] == result["failed"] == 3 * passes
    assert "ZeroDivisionError" in result["failures"][0]
    # calibration before and after each operation, raising or not
    assert all(p["cal"][0] >= 2 * len(ops) and p["cal"][1] > 0 for p in result["wall_s"])


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    bench = _bench()
    proc = _run(["--workload", "small_runs", "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--size", "tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {n: m["unit"] for n, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "1":
        assert {m["name"]: m["unit"] for m in listed} == METRICS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "paper_tables", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
