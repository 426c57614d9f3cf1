#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload writes-tcp --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally); store files and span dumps
go to .bench_build/perfbench-work. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero with
no result line if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("writes-tcp", "reads-bus", "failover-bus")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds within 1..60")
    return args


def build(bench_dir, build_dir, targets=("perfbench",)):
    """Configures (first time) and builds the benchmark binary."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", *targets,
                  "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main(argv):
    args = parse_args(argv)
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = root / ".bench_build" / "perfbench"
    work_dir = root / ".bench_build" / "perfbench-work"
    if not build(bench_dir, build_dir):
        return 1
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work_dir)]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
