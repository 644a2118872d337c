#!/usr/bin/env python3
"""Require perfbench's exact per-layer counts to equal the committed ones.

    python3 scripts/check_counts.py            # compare, exit 1 on any change
    python3 scripts/check_counts.py --update   # rewrite bench/exact_counts.json

Runs `perfbench/run.py --workload W --seed 1 --seconds 2 --trace 1` for
each workload and collects every metric whose report note perfbench
labels exact ("exact count", "exact; simulated", ...): events, firmware
busy time, entries walked, cells scanned, compaction moves, probes, L1
accesses, packets and control allocations per message, plus the exact
simulated times.  These depend only on the simulated run, never on the
host, so any difference from bench/exact_counts.json is a change in
what the simulator does.  A change that moves a count on purpose
reruns with --update in the same commit and names the cause.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
COUNTS = os.path.join(ROOT, "bench", "exact_counts.json")
WORKLOADS = ("posted_walk", "alpu_rate", "chaos_a2a")
SEED = 1


def exact_counts(workload):
    """Run one workload; return {metric: value} for its exact metrics."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("check_counts: %s exited %d" % (workload, proc.returncode))
    values = json.loads(lines[-1])["metrics"]
    # Report lines: "metric <name> <value> <unit> <note...>".
    exact = {}
    for line in lines:
        fields = line.split(None, 4)
        if len(fields) == 5 and fields[0] == "metric" and \
                fields[4].startswith("exact"):
            exact[fields[1]] = values[fields[1]]["value"]
    return exact


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite %s from this checkout" %
                        os.path.relpath(COUNTS, ROOT))
    args = parser.parse_args()

    got = {w: exact_counts(w) for w in WORKLOADS}
    if args.update:
        with open(COUNTS, "w") as f:
            json.dump({"seed": SEED, "workloads": got}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print("wrote %s" % COUNTS)
        return 0

    with open(COUNTS) as f:
        want = json.load(f)["workloads"]
    bad = 0
    for w in WORKLOADS:
        for name in sorted(set(want.get(w, {})) | set(got[w])):
            a, b = want.get(w, {}).get(name), got[w].get(name)
            if a != b:
                print("%s %s: committed %r, now %r" % (w, name, a, b))
                bad += 1
        print("%s: %d exact metrics checked" % (w, len(got[w])))
    if bad:
        print("FAIL: %d exact counts differ from %s" % (bad, COUNTS))
        return 1
    print("ok: every exact count equals %s" % os.path.relpath(COUNTS, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
