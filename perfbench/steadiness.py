#!/usr/bin/env python3
"""Runs every workload in two sets of runs of the same build and compares them.

Run from the root of the repository:

    python3 perfbench/steadiness.py [--runs 5] [--seconds N] [--workloads a,b]

Set A uses seeds 1..runs and set B seeds runs+1..2*runs; the runs alternate
between workloads so slow drift of the host lands on every workload alike.
For each end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over median) of each set and of all runs
together, and whether the sets agree: set B's median is no worse than set
A's by more than the metric's bound in BENCHMARK.json, and the spread over
all runs stays within the bound (setup_s is exempt from the spread rule).
It also checks that the share of failed operations is the same in both
sets.  Every result line goes to .bench_build/steadiness.json.  Exits 1 when
any check disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("steadiness: %s seed %d failed" % (workload, seed))
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, a, b):
    """Share by which median b is worse than median a."""
    if metric["better"] == "lower":
        return (b - a) / a
    return (a - b) / a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload in each set (at least 2)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    runs = max(2, args.runs)

    results = {w: {"A": [], "B": []} for w in workloads}
    log = []
    for i in range(2 * runs):
        set_name = "A" if i < runs else "B"
        for w in workloads:
            r = run_once(w, i + 1, args.seconds)
            results[w][set_name].append(r)
            log.append({"workload": w, "seed": i + 1, "set": set_name,
                        "result": r})
            print("%s seed %d: %s" % (w, i + 1, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steadiness.json"), "w") as f:
        json.dump(log, f, indent=1)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-12s %10s %10s %10s | %10s %10s %10s | %7s %7s %7s %6s  %s" % (
            "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3",
            "spreadA", "spreadB", "spread", "bound", "verdict"))
        shares = []
        for s in "AB":
            attempted = sum(r["attempted"] for r in results[w][s])
            failed = sum(r["failed"] for r in results[w][s])
            shares.append(failed / attempted)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sets = {s: [r["metrics"][name]["value"] for r in results[w][s]]
                    for s in "AB"}
            qa = statistics.quantiles(sets["A"], n=4)
            qb = statistics.quantiles(sets["B"], n=4)
            everything = sets["A"] + sets["B"]
            total_spread = spread(everything)
            worse = worse_by(metric, statistics.median(sets["A"]),
                             statistics.median(sets["B"]))
            good = worse <= metric["bound"] and (
                name == "setup_s" or total_spread <= metric["bound"])
            ok = ok and good
            print("  %-12s %10.5g %10.5g %10.5g | %10.5g %10.5g %10.5g |"
                  " %7.3f %7.3f %7.3f %6.3f  %s" % (
                      name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2],
                      spread(sets["A"]), spread(sets["B"]), total_spread,
                      metric["bound"], "agree" if good else "DISAGREE"))
        same_share = shares[0] == shares[1]
        ok = ok and same_share
        print("  failed share: A %.6f, B %.6f  %s" % (
            shares[0], shares[1], "agree" if same_share else "DISAGREE"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
