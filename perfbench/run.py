#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program and the simulator library are built with CMake into
.bench_build/ at the repository root (build output goes to stderr).
The program's standard output is passed through; its last line is the
JSON result. A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "perfbench"
WORKLOADS = ("spec1", "parsec4", "server", "churn")


def build():
    """Configure and build the program; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (["cmake", "-S", str(HERE), "-B", str(BUILD)],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in (0, 3600]")
    return args


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    if args.trace == "1":
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
