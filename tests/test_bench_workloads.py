"""The library calls of perfbench's workloads, run once at the tiny size.

perfbench/workloads.py calls glmstab through the library as well as through
cli.main (run_linear with keep_transitions, qr_advance_series over slices, the
oracle, run_nonlinear, tanh_reference). This test runs every workload once, with
perfbench/test_smoke.py's seed, and fails on any operation that raises or fails
its check, so a change that breaks one of those calls fails the test suite too.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's worker and workloads modules, imported as worker.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker"), importlib.import_module("workloads")


@pytest.mark.filterwarnings("ignore:offsets should satisfy")   # as-printed reading
@pytest.mark.parametrize("name", ["paper_tables", "long_frame_trail",
                                  "oracle_separation", "small_runs"])
def test_workload_passes_its_checks(name, bench, tmp_path):
    worker, workloads = bench
    assert sorted(workloads.WORKLOADS) == ["long_frame_trail", "oracle_separation",
                                           "paper_tables", "small_runs"]
    ops = workloads.WORKLOADS[name](3, "tiny", str(tmp_path))
    _, outputs = worker.run_pass(ops)
    assert worker.check_pass(ops, outputs) == []
