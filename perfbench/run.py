"""glmstab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports that checkout's src/.
Every workload process is fresh and single-threaded (BLAS and OpenMP pinned
to one thread). With --trace 0 the run reports the end-to-end metrics:

    wall_s       s    median time of one pass of the workload's operations
    setup_s      s    median time from process start to glmstab imported and
                      tableaus validated, over SETUP_SAMPLES fresh processes
    peak_rss_mb  MB   peak resident memory of the workload process

Both times are rescaled to a reference host speed, measured by calibration
units the workers run after set-up and between operations (speed.py; README,
Steadiness). The run prints fail_ratio (failed / attempted operations) beside
the metrics. With --trace 1 it reports the per-layer metrics of
tracer.METRICS instead. The last line of stdout is the JSON result; the line
before it, starting with ``record``, holds everything measured plus the
environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper_tables", "long_frame_trail", "oracle_separation", "small_runs")
SETUP_SAMPLES = 5       # SETUP_SAMPLES - 1 set-up-only processes plus the workload's own
RUN_LIMIT_S = 170.0     # a run must end within 180 s; the worker is killed at this mark

PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerFailed(Exception):
    pass


def _spawn(argv, deadline):
    """Start a worker; returns (process, kill timer, seconds until ``ready``)."""
    # no bytecode cache: glmstab is compiled at every start, the same on every run
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", **PINNED)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.daemon = True
    killer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, killer)
        raise WorkerFailed(f"worker did not reach set-up (exit {proc.returncode})")
    return proc, killer, ready


def _finish(proc, killer):
    """Wait for a worker to end; returns the rest of its stdout."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out


def measure(args):
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    setups = []                 # [seconds to ready, calibration units, their seconds]
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, killer, ready = _spawn(["--setup-only"], deadline)
                out = _finish(proc, killer)
                if proc.returncode != 0:
                    raise WorkerFailed(f"set-up process exited {proc.returncode}")
                setups.append([ready] + json.loads(out)["setup_cal"])
        proc, killer, ready = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--size", args.size, "--workdir", workdir], deadline)
        out = _finish(proc, killer)
        if proc.returncode != 0:
            raise WorkerFailed(f"workload process exited {proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:             # another run's directory is still there
            pass
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed("workload process printed no result")
    record = json.loads(lines[-1])
    setups.append([ready] + record.pop("setup_cal"))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, setup_s=setups)
    return record


def spread(xs):
    """Interquartile range over median, the benchmark's steadiness measure."""
    if len(xs) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med


def report(record):
    """Print the summary, the record line and the JSON result line."""
    from speed import normalize, pass_seconds
    from tracer import METRICS

    attempted, failed = record["attempted"], record["failed"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['wall_s']) + len(record['traced_wall_s'])}")
    if record["trace"]:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        walls = pass_seconds(record["wall_s"])
        # one set-up is too short to calibrate alone: its median gets the run's speed
        setups, units, unit_seconds = zip(*record["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": normalize(statistics.median(setups), sum(units),
                                           sum(unit_seconds)),
                        "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
        record["spread"] = {"wall_s": spread(walls), "setup_s": spread(setups)}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    if not record["trace"]:
        print(f"  spread (IQR/median) of passes: wall_s {record['spread']['wall_s']:.4f}"
              f" over {len(walls)}, setup_s {record['spread']['setup_s']:.4f}"
              f" over {len(record['setup_s'])}")
    for msg in record["failures"]:
        print(f"  FAILED {msg}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks step counts, for the smoke test only")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "glmstab", "__init__.py")):
        print(f"perfbench: no glmstab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
