#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and prints, for each metric,
the median, the quartiles and the spread (interquartile distance over the
median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload offline --runs 10 [--seed0 1]
        [--same-seed] [--trace]

Seeds are seed0, seed0+1, ... unless --same-seed.  With --trace one more
run is made with --trace 1 on the first seed; its per-layer metrics are
printed, with the tracing overhead: the traced run's end-to-end figures
against the untraced run of the same seed.  Run from the root of the repository.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    for line in p.stderr.splitlines():
        if line.startswith("perfbench: box:"):
            print("  " + line, flush=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit("run failed: exit %d" % p.returncode)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return result, p.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    failed_shares = []
    first = None
    for i in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + i
        t0 = time.time()
        r, _ = run(args.workload, seed, seconds, 0)
        took = time.time() - t0
        failed_shares.append((r["failed"], r["attempted"]))
        if first is None:
            first = {n: m["value"] for n, m in r["metrics"].items()}
        print("run %d seed %d: correct=%s attempted=%d failed=%d (%.0f s)" %
              (i + 1, seed, r["correct"], r["attempted"], r["failed"], took),
              flush=True)
        for name in values:
            values[name].append(r["metrics"][name]["value"])
    print("%-16s %12s %12s %12s %8s %6s %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", ""))
    medians = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        flag = "" if spread <= bound / 3 else (
            "over a third of bound" if spread <= bound else "OVER BOUND")
        print("%-16s %12.6g %12.6g %12.6g %8.3f %6.2f %s" %
              (name, med, q1, q3, spread, bound, flag))
        print("%16s %s" % ("", " ".join("%.4g" % v for v in vs)))
    print("failed/attempted per run: %s" % failed_shares)
    if args.trace:
        r, err = run(args.workload, args.seed0, seconds, 1)
        print("traced run: correct=%s attempted=%d failed=%d" %
              (r["correct"], r["attempted"], r["failed"]))
        for name, m in r["metrics"].items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
        traced = {}
        for line in err.splitlines():
            if "traced end-to-end:" in line:
                for k, v in re.findall(r"(\S+)=(\S+)", line):
                    traced[k] = float(v)
        print("tracing overhead (traced run against the untraced run of "
              "seed %d):" % args.seed0)
        for name, base in first.items():
            if name in traced and base:
                print("  %-16s %+.1f%%" % (name, 100.0 * (traced[name] / base - 1.0)))


if __name__ == "__main__":
    main()
