"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--workloads A B]
                                [--trace] [--out FILE]

For every workload it runs ``run.py`` once per seed with the run_seconds of
BENCHMARK.json, then gives each end-to-end metric's median and its spread: the
distance between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. A spread within a third of the metric's bound is marked
steady. With --trace it adds one traced run per workload for the per-layer
numbers. --out writes everything, with the environment of the first run, as
JSON (perfbench/baseline.json is such a file).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """One run.py invocation; returns (record, result, elapsed seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("record "):])
    return record, json.loads(lines[-1]), time.perf_counter() - start


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    summary = {"run_seconds": bench["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in workloads:
        values, failed, attempted = {name: [] for name in bounds}, 0, 0
        elapsed, passes, setups = [], [], []
        for seed in seeds:
            record, result, took = run_once(workload, seed, bench["run_seconds"], 0)
            elapsed.append(took)
            passes.append(record["wall_s"])
            setups.append(record["setup_s"])
            summary.setdefault("env", record["env"])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {values[n][-1]:.4g}" for n in bounds), flush=True)
        entry = {"fail_ratio": failed / attempted, "attempted": attempted,
                 "run_elapsed_s": elapsed, "passes": passes,
                 "setup_samples": setups,
                 "end_to_end": {n: summarize(v, bounds[n]) for n, v in values.items()}}
        if args.trace:
            _, result, took = run_once(workload, seeds[0], bench["run_seconds"], 1)
            entry["trace_run_elapsed_s"] = took
            entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload:18s} {name:12s} median {s['median']:.4g}  spread "
                  f"{s['spread']:.3f}  bound {s['bound']}  "
                  f"{'steady' if s['steady'] else 'NOT steady'}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
