"""Record how long each reference seed's input takes, for panel banding.

    python3 perfbench/record_costs.py [WORKLOAD ...]

Times the ``REFERENCE_SEEDS`` inputs of each named workload (default:
all), each in a fresh worker process as the benchmark does, and writes
the median timed-phase seconds of ``PASSES`` passes over them to
``perfbench/costs.json``; entries of other workloads are kept.  Each
pass visits every seed once, so a slow spell of the machine lands on
one measurement of a seed, not on all of them.  The benchmark orders
the seeds by these times and draws each run's panel from the middle of
that order (see ``run.panel``), so the inputs of a run cost about the
same.  Only the order matters; re-record when a change to the program
reorders the inputs (about 20 minutes per workload on a 2-vCPU
machine).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import COSTS_PATH, spawn  # noqa: E402
from worker import REFERENCE_SEEDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Passes over the seeds; a seed's cost is the median of its passes.
PASSES = 3


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {sorted(WORKLOADS)}")
    table = {}
    if os.path.exists(COSTS_PATH):
        with open(COSTS_PATH) as handle:
            table = json.load(handle)
    for name in args.workloads or list(WORKLOADS):
        times = {seed: [] for seed in range(REFERENCE_SEEDS)}
        for _ in range(PASSES):
            for seed in times:
                record = spawn(name, seed, "timed")
                if record["failed"] or record["problems"]:
                    print(f"{name}/seed {seed}: check failed", file=sys.stderr)
                    return 1
                times[seed].append(record["wall_s"])
                print(f"{name}/seed {seed}: {record['wall_s']:.2f} s",
                      flush=True)
        table[name] = {
            str(seed): round(statistics.median(values), 3)
            for seed, values in times.items()
        }
        with open(COSTS_PATH, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
