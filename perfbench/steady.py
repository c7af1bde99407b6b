#!/usr/bin/env python3
"""Steadiness check for the benchmark of record.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]

Runs every workload --runs times in each of two separate sets, each run
with its own seed, through perfbench/run.py. For every end-to-end metric
it prints each set's median and quartiles (Python's statistics.quantiles,
n=4), the spread (q3 - q1) / median, how far the second set's median
moved from the first's, and each against the metric's bound in
BENCHMARK.json. It also prints each set's failed share. The bounds in
BENCHMARK.json are set from this script's output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (default: all in BENCHMARK.json)")
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]

    for wl in workloads:
        sets = []
        for s in range(SETS):
            seeds = range(1 + s * a.runs, 1 + (s + 1) * a.runs)
            sets.append([run_once(wl, seed, a.seconds) for seed in seeds])
        print("== %s: %d sets x %d runs of %d s" % (wl, SETS, a.runs, a.seconds))
        for s, runs in enumerate(sets):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            print("  set %d: %d attempted, %d failed (share %.6f), all correct: %s"
                  % (s + 1, att, fail, fail / att, all(r["correct"] for r in runs)))
        for name in bounds:
            per_set = [summary([r["metrics"][name]["value"] for r in runs])
                       for runs in sets]
            bound = bounds[name]["bound"]
            lower = bounds[name]["better"] == "lower"
            for s, st in enumerate(per_set):
                moved = (st["median"] - per_set[0]["median"]) / per_set[0]["median"]
                worse = moved if lower else -moved
                print("  %-12s set %d  median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %6.2f%% (bound %4.1f%%, %.2f of it)  vs set 1 %+6.2f%%%s"
                      % (name, s + 1, st["median"], st["q1"], st["q3"],
                         100 * st["spread"], 100 * bound, st["spread"] / bound,
                         100 * moved, "  WORSE THAN BOUND" if worse > bound else ""))


if __name__ == "__main__":
    main()
