#!/usr/bin/env python3
"""Build and run the pMAFIA end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload build-wide --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from ../src) into .bench_build/perfbench; later calls only re-check the
build.  The benchmark binary then runs the workload and prints its metrics,
ending with one JSON line.  Build output goes to
.bench_build/perfbench-build.log, never to stdout.
"""
import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench-build.log"
WORKLOADS = ("build-wide", "build-deep", "stream")


def build(target):
    """Configure (once) and build `target`; exit non-zero on failure."""
    if not (ROOT / "src" / "core" / "mafia.hpp").is_file():
        sys.exit("perfbench: no pMAFIA sources next to perfbench/ (expected src/)")
    LOG.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", target])
    with open(LOG, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)} (see {LOG})")
    return BUILD / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.self_test:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    binary = build("perfbench")
    sys.stdout.flush()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
