#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload fanout|durable|crawl --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run builds the benchmark and
the library from source with CMake into .bench_build/ (a few minutes);
later runs rebuild only what changed.

A run is a fixed number of rounds — as many as fill about --seconds on a
4-vCPU host; the count never follows the clock — and each round runs in a
process of its own, on inputs drawn from (seed, round). Fresh processes
spread what one process's placement and memory layout do to its speed
over the rounds. The run reports each end-to-end metric as the mean of
its two fastest rounds: other tenants of a shared host only ever add
time, so the fastest rounds estimate the program's own cost. Report-only
and per-layer figures are medians over the rounds. With --trace 1 the
rounds come in pairs on the same inputs, one untraced and one traced:
the traced ones give the per-layer metrics and the pairs the tracing
overhead; on crawl, a pair whose decider or recheck counts differ fails
the run.

Prints two JSON lines: the run's parameters with the report-only figures,
then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones of BENCHMARK.json (--trace 0) or
its per-layer ones (--trace 1); a layer a workload bypasses reports 0.
Exits non-zero, without the result line, when the build, a round or a
check fails.

--self-test builds and runs the tests of the benchmark's own math (C++
percentiles, span self time, fail ratio, pacing) and of compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from compare import fastest_mean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Rounds that fill about ten seconds of a 4-vCPU host, per workload.
ROUNDS_PER_10S = {"fanout": 4, "durable": 40, "crawl": 22}
MIN_ROUNDS = 3
# No new round starts after this; the run must end within 180 s.
RUN_DEADLINE_S = 150
# Counts that repeat exactly for one input set: with --trace 1 the traced
# round of each pair must report the same ones as the untraced round.
EXACT_COUNTS = {"crawl": ("report.accesses", "relevance.ir_runs",
                          "relevance.ltr_runs", "stream.rechecks")}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures and builds `target`; returns the binary's path."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", "4"],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def run_round(cmd, timeout_s):
    """Runs one round's process; returns (its JSON record, peak RSS MiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(timeout_s, 1), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if not lines:
        fail("a round printed nothing (exit %d)" % proc.returncode)
    record = json.loads(lines[-1])
    if proc.returncode != 0 and record.get("correct", False):
        fail("a round exited %d" % proc.returncode)
    return record, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB


def probe_ms(binary):
    done = subprocess.run([binary, "--probe"], stdout=subprocess.PIPE,
                          text=True, check=True)
    return float(done.stdout)


def self_test():
    binary = build("perfbench_math_test")
    if subprocess.run([binary]).returncode != 0:
        fail("perfbench_math_test failed")
    done = subprocess.run([sys.executable, "-m", "unittest", "-q",
                           "test_compare"], cwd=HERE)
    if done.returncode != 0:
        fail("test_compare failed")
    print("perfbench self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    start = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in ROUNDS_PER_10S:
        fail("unknown workload %r" % args.workload)
    binary = build("perfbench")

    input_sets = max(MIN_ROUNDS,
                     round(ROUNDS_PER_10S[args.workload] * args.seconds / 10))
    rounds = 2 * ((input_sets + 1) // 2) if args.trace else input_sets
    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           "%s-%d" % (args.workload, os.getpid()))
    trace_file = os.path.join(ROOT, ".bench_build", "spans-%s-%d.tsv" %
                              (args.workload, args.seed))
    probe_start = probe_ms(binary)
    untraced, traced = [], []
    attempted = failed = 0
    params = {}
    try:
        for i in range(rounds):
            elapsed = time.monotonic() - start
            if elapsed > RUN_DEADLINE_S:
                break
            is_traced = bool(args.trace and i % 2 == 1)
            input_set = i // 2 if args.trace else i
            cmd = [binary, "--workload", args.workload,
                   "--seed", str(args.seed * 1000003 + input_set),
                   "--traced", "1" if is_traced else "0",
                   "--scratch", scratch]
            if is_traced and not traced:
                cmd += ["--trace-file", trace_file]
            record, rss_mb = run_round(cmd, 175 - elapsed)
            attempted += record["attempted"]
            failed += record["failed"]
            params = record["params"]
            if not record["correct"]:
                fail("round %d failed its check: %s" % (i, record["error"]))
            metrics = dict(record["metrics"], rss_mb=rss_mb)
            if is_traced:
                for name in EXACT_COUNTS.get(args.workload, ()):
                    got, want = metrics.get(name), untraced[-1].get(name)
                    if got != want:
                        fail("round %d: %s read %s traced and %s untraced "
                             "on the same inputs" % (i, name, got, want))
            (traced if is_traced else untraced).append(metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    probe_end = probe_ms(binary)

    def fastest(runs, name):
        return fastest_mean([r.get(name, 0.0) for r in runs])

    def median(runs, name):
        return statistics.median([r.get(name, 0.0) for r in runs])

    e2e = [m["name"] for m in spec["end_to_end"]]
    report = {name: median(untraced, name)
              for name in sorted(untraced[0]) if name.startswith("report.")}
    params.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=len(untraced) + len(traced),
                  traced_rounds=len(traced), cpu_probe_start_ms=probe_start,
                  cpu_probe_end_ms=probe_end, git_commit=git_commit(),
                  source_sha256=source_digest())
    params.pop("round_seed", None)
    metrics = {}
    if args.trace:
        report.update({name: fastest(untraced, name) for name in e2e})
        for m in spec["per_layer"]:
            name = m["name"]
            prefix = "obs.trace_overhead."
            if name.startswith(prefix):
                base = fastest(untraced, name[len(prefix):])
                with_trace = fastest(traced, name[len(prefix):])
                value = (with_trace - base) / base if base else 0.0
            else:
                value = median(traced, name)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = fastest(untraced, m["name"])
            if not value > 0:
                fail("end-to-end metric %s is missing or 0" % m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"params": params, "report": report}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
