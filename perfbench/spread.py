#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

For every metric it prints the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, the figure BENCHMARK.json's bounds are set
against. It also checks that runs of one seed agree on their digest.

Usage, from the repository root:

    python3 perfbench/spread.py --workload game-steady --runs 10 --seconds 30
    python3 perfbench/spread.py --workload plan-10k --seeds 1 7 --trace 1

Each run's full output is kept under .bench_build/spread/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace, log_dir):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    name = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(log_dir, name + ".out"), "a") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    digest = next((l.split("digest ")[-1] for l in lines if "timed reps" in l), None)
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="*",
                    help="seeds to use (default: 1..runs)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    seeds = args.seeds or list(range(1, args.runs + 1))
    log_dir = os.path.join(".bench_build", "spread")
    os.makedirs(log_dir, exist_ok=True)

    values, digests, correct = {}, {}, True
    for seed in seeds:
        res, digest = run_once(args.workload, seed, args.seconds, args.trace, log_dir)
        correct = correct and res["correct"] and res["failed"] == 0
        digests.setdefault(seed, set()).add(digest)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} digest={digest}", flush=True)

    print(f"{'metric':34} {'median':>14} {'spread':>8}")
    for name in sorted(values):
        vals = values[name]
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q = statistics.quantiles(vals, n=4)
            spread = f"{(q[2] - q[0]) / med:8.4f}"
        else:
            spread = "       -"
        print(f"{name:34} {med:14.6g} {spread}")
    unstable = [s for s, d in digests.items() if len(d) != 1]
    if unstable or not correct:
        sys.exit(f"FAILED: correct={correct}, seeds with differing digests: {unstable}")


if __name__ == "__main__":
    main()
