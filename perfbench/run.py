#!/usr/bin/env python3
"""Builds and runs the mvec benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

The first form builds mvecd and the benchmark program (perfbench/CMakeLists.txt,
into .bench_build/ or $CARGO_TARGET_DIR) and runs one workload; the last line
of stdout is the result object. --quick is the benchmark's own test: every
workload for one second in both modes, checked against the metrics
BENCHMARK.json declares, plus
the seed-discipline checks (same seed, same inputs; other seed, other inputs).
Build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# cold-miss runs but is not declared in BENCHMARK.json (see README.md).
WORKLOADS = ("paper-kernels", "cold-miss", "warm-hit")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds mvec_bench (with its mvec_bench_spawn)
    and mvecd; returns the paths of mvec_bench and mvecd."""
    out = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "mvec_bench",
                  "mvec_bench_spawn", "mvecd", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return (os.path.join(out, "mvec_bench"),
            os.path.join(out, "mvec", "tools", "mvecd"))


def bench_cmd(binaries, workload, seed, seconds, trace, extra=()):
    bench, mvecd = binaries
    return [bench, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--mvecd", mvecd, "--root", ROOT,
            "--work", os.path.join(build_dir(), "work-" + workload), *extra]


def run_one(binaries, args):
    try:
        proc = subprocess.run(bench_cmd(binaries, args.workload, args.seed,
                                        args.seconds, args.trace),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


def check_result(spec, workload, trace, stdout, problems):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append("%s trace %d: last line is not JSON" % (workload, trace))
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s trace %d: result keys %s" % (workload, trace, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s trace %d: correct=%s failed=%s" % (
            workload, trace, result["correct"], result["failed"]))
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append("%s trace %d: metric names differ: missing %s, extra %s" % (
            workload, trace, sorted(set(units) - set(metrics)),
            sorted(set(metrics) - set(units))))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append("%s: %s is not {value, unit}" % (workload, name))
        elif name in units and m["unit"] != units[name]:
            problems.append("%s: %s unit %s, declared %s" % (
                workload, name, m["unit"], units[name]))
        elif not trace and m["value"] <= 0:
            problems.append("%s: end-to-end %s is %s" % (workload, name, m["value"]))


def quick(binaries):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in WORKLOADS:
        hashes = []
        for seed in (1, 1, 2):
            out = subprocess.run(bench_cmd(binaries, name, seed, 1, 0, ["--inputs-hash"]),
                                 capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            hashes.append(out.stdout.split()[-1] if out.returncode == 0 else None)
        if None in hashes or hashes[0] != hashes[1]:
            problems.append("%s: same seed gave different inputs %s" % (name, hashes))
        elif hashes[0] == hashes[2]:
            problems.append("%s: seeds 1 and 2 gave the same inputs" % name)
        for trace in (0, 1):
            out = subprocess.run(bench_cmd(binaries, name, 1, 1, trace),
                                 capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                problems.append("%s trace %d: exit %d" % (name, trace, out.returncode))
            check_result(spec, name, trace, out.stdout, problems)
        print("quick: %s checked" % name)
    for p in problems:
        print("quick: FAIL " + p)
    print("quick: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and args.workload not in WORKLOADS:
        parser.error("--workload must be one of " + ", ".join(WORKLOADS))
    binaries = build()
    sys.stdout.flush()
    return quick(binaries) if args.quick else run_one(binaries, args)


if __name__ == "__main__":
    sys.exit(main())
