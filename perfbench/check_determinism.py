#!/usr/bin/env python3
"""Checks that the benchmark's work counters repeat exactly.

Runs the traced mode (--trace 1) twice per workload with the same seed and
compares the counters that count work rather than time: the service's path
counts, phase-1/phase-2 visitor counts of the core engine, the warm-start
repair sizes, and the world-2 rank-loop counts. Exits 1 on any difference.

    python3 perfbench/check_determinism.py [--seed N] [--workload NAME ...]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["explore-lvj", "cold-frs", "rankloop-frs", "mutate-lvj"]
EXACT_PREFIXES = ("service.path.", "core.p1.", "core.p2.", "core.warm.",
                  "core.edge_warm.")
EXACT_NAMES = {
    "service.fragment_hits", "service.warm_fallbacks",
    "runtime.net.supersteps", "runtime.net.vote_rounds", "runtime.net.frames",
    "runtime.net.wire_bytes", "runtime.net.ghost_labels",
    "runtime.net.settled", "runtime.net.remote_msgs",
    "runtime.net.remote_per_settled", "runtime.net.bytes_per_settled",
}


def counters(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    differences = 0
    for workload in args.workload or WORKLOADS:
        first, second = counters(workload, args.seed), counters(workload, args.seed)
        for name in sorted(first):
            if first[name] != second.get(name):
                print(f"{workload}: {name} {first[name]} != {second.get(name)}")
                differences += 1
        print(f"{workload}: {len(first)} counters compared")
    if differences:
        print(f"FAIL: {differences} counters differ between identical runs")
        return 1
    print("OK: every work counter repeated exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
