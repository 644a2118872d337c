#!/usr/bin/env python3
"""Build and run the simulator host-cost benchmark.

    python3 perfbench/run.py --workload posted_walk|alpu_rate|chaos_a2a \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It configures and builds
perfbench/ (which compiles the simulator from src/) into .bench_build/
with CMake; only the first run compiles anything.  Build
output goes to stderr.  The benchmark's report and its final JSON line go
to stdout, and its exit status is passed through: 0 only when every
message of every repetition passed verification.

With --trace 1 the spans of the last traced repetition are written to
.bench_build/trace-<workload>-<seed>.json (Chrome trace-event format).
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("posted_walk", "alpu_rate", "chaos_a2a")
# A run may take this long before it is stopped (builds excluded).
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the benchmark; exit 1 if either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", SOURCE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # Self-test only (perfbench/selftest.py): corrupt one ALPU cell.
    parser.add_argument("--inject-silent-flip", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and 0 < --seconds <= 120")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.inject_silent_flip:
        cmd.append("--inject-silent-flip")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the benchmark and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
