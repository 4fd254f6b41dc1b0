"""One workload in one fresh process; started by run.py, not by hand.

The process imports glmstab from the checkout's src/, validates every tableau
and prints ``ready``: that is the end of set-up. It then runs SETUP_CAL_S of
calibration units (speed.py), which give the host's speed for setup_s; with
--setup-only it prints them and stops. Otherwise it builds the workload's
operations from the seed and runs passes over them until --seconds have been
spent (at least MIN_PASSES). Each operation is timed, with calibration units
between operations; the correctness checks run after the pass, untimed. With
--trace 1 every second pass runs under the tracer. The last line of stdout is
one JSON object with the pass times and calibration, failures, peak memory,
per-layer metrics and the environment.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import glmstab  # noqa: E402  (must come from SRC, checked below)
from glmstab import cli, glm, linalg, onestep, problems, spectra  # noqa: E402

from speed import CAL_SHARE, Meter, normalize, pass_seconds  # noqa: E402

TABLEAUS = ("bdf2", "ab2", "be")
SETUP_CAL_S = 0.2                       # calibration after set-up, to rescale setup_s
TIME_UNITS = ("s", "us/step", "us/sample")  # per-layer metrics rescaled like wall_s
MIN_PASSES = {0: 3, 1: 4}               # by --trace: a traced run needs 2 of each kind


def setup():
    if os.path.dirname(os.path.abspath(glmstab.__file__)) != os.path.join(SRC, "glmstab"):
        raise SystemExit(f"glmstab imported from {glmstab.__file__}, not from {SRC}")
    for name in TABLEAUS:
        glm.get_tableau(name)


class Raised:
    """Stands in for the output of an operation that raised or exited."""

    def __init__(self, exc):
        self.exc = exc


def run_pass(ops, tracer=None, meter=None, expected=None):
    """Run every operation once; returns (seconds per operation, outputs).

    With a speed.Meter, calibration units run, untimed, right before and right
    after each operation, each time for CAL_SHARE / 2 of its time (``expected``
    holds the times of the previous pass, which before the operation are the
    best guess).
    """
    state, outputs, times = {}, [], []
    with tracer or contextlib.nullcontext():
        for j, op in enumerate(ops):
            if meter:
                meter.sample(CAL_SHARE / 2 * (expected[j] if expected else 0.0))
            start = time.perf_counter()
            try:
                outputs.append(op.run(state))
            except (Exception, SystemExit) as exc:   # an operation failing is data
                outputs.append(Raised(exc))
            times.append(time.perf_counter() - start)
            if meter:
                meter.sample(CAL_SHARE / 2 * times[-1])
    return times, outputs


def check_pass(ops, outputs):
    """Failure messages of one pass; an empty list means every operation passed."""
    from workloads import CheckFailed

    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Raised):
            failures.append(f"{op.name}: raised {out.exc!r}")
            continue
        try:
            op.check(out)
        except CheckFailed as exc:
            failures.append(f"{op.name}: {exc}")
        except Exception as exc:                      # e.g. an output file missing
            failures.append(f"{op.name}: check raised {exc!r}")
    return failures


def measure(ops, seconds, trace):
    """Passes until the time is spent; pass times, layer medians, failures.

    Each pass is recorded as {"ops": seconds per operation, "cal": [units,
    seconds]} of the calibration units run around its operations.
    """
    from tracer import METRICS, Tracer, layer_metrics

    modules = {"cli": cli, "glm": glm, "linalg": linalg, "onestep": onestep,
               "problems": problems, "spectra": spectra}
    walls, traced_walls, layers, failures, cycles = [], [], [], [], []
    attempted = 0
    meter, times = Meter(), None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        tracer = Tracer(modules) if trace and len(cycles) % 2 else None
        times, outputs = run_pass(ops, tracer, meter, times)
        entry = {"ops": times, "cal": list(meter.take())}
        failures += check_pass(ops, outputs)
        attempted += len(ops)
        del outputs                     # so two passes' outputs never coexist
        if tracer is None:
            walls.append(entry)
        else:
            traced_walls.append(entry)
            # layer times at the reference speed too, with their pass's calibration
            factor = normalize(1.0, *entry["cal"])
            layers.append({k: v * factor if METRICS[k] in TIME_UNITS else v
                           for k, v in layer_metrics(tracer).items()})
        cycles.append(time.perf_counter() - start)
        if (len(cycles) >= MIN_PASSES[trace]
                and time.perf_counter() + statistics.median(cycles) > deadline):
            break
    layer_medians = {}
    if layers:
        layer_medians = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        # the same statistic as wall_s for each kind of pass
        layer_medians["trace.overhead_s"] = (statistics.median(pass_seconds(traced_walls))
                                             - statistics.median(pass_seconds(walls)))
    return {"wall_s": walls, "traced_wall_s": traced_walls, "layers": layer_medians,
            "attempted": attempted, "failed": len(failures), "failures": failures[:10]}


def _blas():
    """BLAS libraries loaded in this process and their thread counts."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, paths = {}, []
    if os.path.isfile("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _src_digest():
    """sha256 over src/ (paths and bytes): names the measured code without git."""
    import hashlib

    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def environment():
    import platform

    import numpy
    import scipy

    return {"git_sha": _git_sha(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    setup()
    print("ready", flush=True)
    meter = Meter()                     # the host's speed right after set-up
    meter.sample(SETUP_CAL_S)
    if args.setup_only:
        print(json.dumps({"setup_cal": meter.take()}), flush=True)
        return 0

    import resource
    import warnings

    from workloads import WORKLOADS

    # the as-printed table-2 offsets warn on every row; the warning is expected
    warnings.simplefilter("ignore")
    os.makedirs(args.workdir, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    result = measure(ops, args.seconds, args.trace)
    result["setup_cal"] = meter.take()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
