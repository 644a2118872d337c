#!/usr/bin/env python3
"""Prove the benchmark's verification can fail.

    python3 perfbench/selftest.py

Runs perfbench/run.py twice from the root of the checkout:

  1. alpu_rate, clean: must exit 0 and report correct=true, failed=0.
  2. chaos_a2a with hw::testing::inject_silent_flip armed (one ALPU cell
     corrupted behind the parity layer on the first insert): must exit
     nonzero and report correct=false and failed > 0, so failed_frac > 0
     and verified_frac < 1.

Exits 0 only when both hold.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    ok = True
    code, clean = run("alpu_rate")
    if code != 0 or not clean or not clean["correct"] or clean["failed"] != 0:
        print("FAIL: clean alpu_rate run: exit %d, result %s" % (code, clean))
        ok = False
    else:
        print("ok: clean alpu_rate run passes (%d messages)" % clean["attempted"])

    code, flipped = run("chaos_a2a", "--inject-silent-flip")
    if (code == 0 or not flipped or flipped["correct"] or flipped["failed"] == 0
            or flipped["metrics"]["verified_frac"]["value"] >= 1.0):
        print("FAIL: silent flip went undetected: exit %d, result %s"
              % (code, flipped))
        ok = False
    else:
        print("ok: silent flip caught: exit %d, failed_frac %.4f (%d of %d)"
              % (code, flipped["failed"] / flipped["attempted"],
                 flipped["failed"], flipped["attempted"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
