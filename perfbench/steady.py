#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs every workload of BENCHMARK.json --runs times, each run with its
own seed, alternating the workload order from round to round (forward,
then reversed), and prints for each end-to-end metric its median, first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound. A metric is steady when
its spread stays below a third of its bound.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1]
        [--workloads serve-open,offline-pim] [--save FILE] [--compare FILE]

--save writes the raw values as JSON; --compare reads such a file from
an earlier set and checks that no median got worse by more than the
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady.py: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("steady.py: %s seed %d reported incorrect output"
                 % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_share(metric, old, new):
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()
    if args.runs < 3:
        ap.error("--runs must be at least 3")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    values = {w: {} for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            for k, v in run_once(spec, w, args.seed_base + i).items():
                values[w].setdefault(k, []).append(v)
            print("run %d/%d %s done" % (i + 1, args.runs, w),
                  file=sys.stderr, flush=True)

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    ok = True
    print("%-12s %-18s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for w in names:
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "UNSTEADY")
            if spread > m["bound"]:
                ok = False
            if w in earlier and m["name"] in earlier[w]:
                old = statistics.median(earlier[w][m["name"]])
                if old == 0:
                    continue
                worse = worse_share(m, old, statistics.median(vals))
                verdict += "; vs earlier %+.3f" % worse
                if worse > m["bound"]:
                    verdict += " REGRESSED"
                    ok = False
            print("%-12s %-18s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
                w, m["name"], med, q1, q3, spread, m["bound"], verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
