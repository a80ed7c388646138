#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of one build agree.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--trace 0]
                                    [--workloads swap_storm,sweep_grid]

Each of two sets runs every workload --runs times, run i with seed 1 + i,
through perfbench/run.py for BENCHMARK.json's run_seconds. For every metric
it prints each set's median, first and third quartile (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median, then how far the second median moved from the first, as a share of
the first (positive when it moved in the metric's worse direction).

It reports FAIL when an end-to-end metric spreads wider than its bound,
when any metric's two medians differ by more than its bound in either
direction, when the failed share of operations differs between any two
runs, and when a deterministic metric (a simulated time, a fee, an exact
count) differs between two runs of the same seed. The exit code is 1 on any
FAIL.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1

# Metrics that are pure functions of the seed: two runs of one seed must
# print the same value.
DETERMINISTIC = {
    "commit_latency_p50_ms", "commit_latency_p99_ms", "fees_per_op",
    "sim.events_per_op", "sim.deliveries_per_op",
    "protocols.messages_per_swap", "protocols.message_bytes_per_swap",
    "protocols.onchain_txs_per_swap", "chain.blocks",
    "chain.canonical_ratio", "chain.txs_per_block", "crypto.pow_evals",
}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    failures = []
    for workload in workloads:
        # sets[s][i] is run i (seed FIRST_SEED + i) of set s.
        sets = []
        for _ in range(SETS):
            sets.append([run_once(workload, FIRST_SEED + i,
                                  spec["run_seconds"], args.trace)
                         for i in range(args.runs)])
        print(f"== {workload}")
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        if len(shares) > 1:
            failures.append(f"{workload}: failed share differs {shares}")
        for name in bounds:
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                print(f"  {name:34s} set {s + 1}: median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
                bound = bounds[name]
                if bound is not None and spread > bound:
                    failures.append(f"{workload} {name}: spread {spread:.4f}"
                                    f" > bound {bound}")
            for s in range(1, len(medians)):
                worse = (medians[s] - medians[0]) / medians[0]
                if better[name] == "higher":
                    worse = -worse
                print(f"  {name:34s} set {s + 1} vs set 1: worse by "
                      f"{worse:+.4f}")
                bound = bounds[name]
                if bound is not None and abs(worse) > bound:
                    failures.append(f"{workload} {name}: set {s + 1} median "
                                    f"moved by {worse:+.4f}, beyond bound "
                                    f"{bound}")
            if name in DETERMINISTIC:
                for i in range(args.runs):
                    seen = {s[i]["metrics"][name]["value"] for s in sets}
                    if len(seen) > 1:
                        failures.append(f"{workload} {name}: seed "
                                        f"{FIRST_SEED + i} gave {seen}")
    for failure in failures:
        print("FAIL", failure)
    print("steady" if not failures else "NOT steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
