"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py [--size full|reduced]

For each workload that keeps a reference (``study_small``: the digests
one run produces; ``build_large_streamed``: the per-DC digests of a
monolithic build), computes it for every seed of the size (the
``REFERENCE_SEEDS`` the benchmark draws from, or the reduced inputs its
tests run) and merges it into
``perfbench/reference.json``.  Each seed runs in its own process, so no
input's memory peak adds to the next one's.  Run it only when the
program's outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from worker import REFERENCE_PATH, REFERENCE_SEEDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Reduced-size inputs the benchmark's tests run.
REDUCED_SEEDS = (1, 2)


def _one(workload: str, size: str, seed: int) -> dict:
    """The reference for one input, computed in a child process."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "from workloads import WORKLOADS;"
        "print(json.dumps(WORKLOADS[sys.argv[2]].reference("
        "int(sys.argv[3]), sys.argv[4])))"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, here, workload, str(seed), size],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "reduced"), default="full")
    args = parser.parse_args(argv)
    seeds = range(REFERENCE_SEEDS) if args.size == "full" else REDUCED_SEEDS
    names = [
        name
        for name, module in WORKLOADS.items()
        if hasattr(module, "reference") and args.size in module.SIZES
    ]
    table = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            table = json.load(handle)
    for name in names:
        for seed in seeds:
            entry = _one(name, args.size, seed)
            table.setdefault(name, {}).setdefault(args.size, {})[
                str(seed)
            ] = entry
            with open(REFERENCE_PATH, "w") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"{name}/{args.size}/seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
