#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    python3 perfbench/compare.py collect --out A.jsonl [--out B.jsonl] \
        [--workloads fanout,durable,crawl] [--seeds 1-10] [--trace 0]
    python3 perfbench/compare.py report A.jsonl [B.jsonl]

`collect` runs perfbench/run.py once per set, workload and seed (from
the root of a checkout) and appends one JSON record per run to the set's
file: its parameters, report figures and result. Given two --out files
it collects both sets at once, interleaved: for each seed and workload
it runs the seed for one set and then for the other, alternating which
goes first, so that a phase of a shared host falls on both sets alike.

`report` prints, per workload and metric, each set's median, quartiles
and spread — the distance between the quartiles as a share of the
median, with the quartiles taken as statistics.quantiles(values, n=4)
gives them. Given two sets it also prints how far the second median
moved from the first, in the metric's worse direction, and checks both
figures against the metric's bound in BENCHMARK.json: every spread
within the bound, and no median worse than the first set's by more than
the bound. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    """'1-10' or '1,4,7' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def fastest_mean(values, k=2):
    """Mean of the `k` lowest of `values` (of all of them when there are
    fewer); 0 for no values. A run's end-to-end figure over its rounds:
    other tenants of a shared host only ever add time, so the fastest
    rounds estimate the program's own cost, and averaging two keeps a
    single round from setting the figure alone."""
    if not values:
        return 0.0
    lowest = sorted(values)[:k]
    return sum(lowest) / len(lowest)


def summarize(values):
    """(median, q1, q3, spread) of a set of runs' values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_shift(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def interleaved(outs, workloads, seeds):
    """(out, workload, seed) in collection order: every seed and workload
    once per set, the sets alternating which goes first."""
    order = []
    for i, seed in enumerate(seeds):
        for workload in workloads:
            sets = outs if i % 2 == 0 else outs[::-1]
            order.extend((out, workload, seed) for out in sets)
    return order


def collect(args):
    for path, workload, seed in interleaved(args.out,
                                            args.workloads.split(","),
                                            parse_seeds(args.seeds)):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print("run failed: %s seed %d" % (workload, seed),
                  file=sys.stderr)
            return 1
        record = dict(json.loads(lines[-2]), workload=workload, seed=seed,
                      result=json.loads(lines[-1]))
        with open(path, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
        values = record["result"]["metrics"]
        print(os.path.basename(path), workload, seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in values.items()),
            flush=True)
    return 0


def load(path):
    """{workload: {metric: [values]}} from a collected set."""
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            per = runs.setdefault(record["workload"], {})
            for name, m in record["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return runs


def report(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(p) for p in args.sets]
    ok = True
    print("%-8s %-32s %-3s %12s %12s %12s %8s %8s %6s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread",
           "shift", "bound"))
    for workload in sorted(sets[0]):
        for name in sorted(sets[0][workload]):
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            first = None
            for label, runs in zip("AB", sets):
                values = runs.get(workload, {}).get(name)
                if not values or len(values) < 2:
                    continue
                median, q1, q3, spread = summarize(values)
                shift = ""
                if first is None:
                    first = median
                else:
                    moved = worse_shift(first, median, meta.get("better"))
                    shift = "%+.1f%%" % (100 * moved)
                    if bound is not None and moved > bound:
                        ok = False
                        shift += "!"
                flag = ""
                if bound is not None and spread > bound:
                    ok = False
                    flag = "!"
                print("%-8s %-32s %-3s %12.6g %12.6g %12.6g %7.1f%%%s %8s %6s"
                      % (workload, name, label, median, q1, q3, 100 * spread,
                         flag, shift, "" if bound is None else bound))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", action="append", required=True)
    c.add_argument("--workloads", default="fanout,durable,crawl")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=30)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.mode == "report" and len(args.sets) > 2:
        parser.error("report takes one or two sets")
    if args.mode == "collect" and len(args.out) > 2:
        parser.error("collect takes one or two --out files")
    sys.exit(collect(args) if args.mode == "collect" else report(args))


if __name__ == "__main__":
    main()
