"""One workload iteration in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \\
        --t0 SPAWN_MONOTONIC

``--mode timed`` sets up, runs the timed phase with telemetry off and
checks its outputs; ``traced`` does the same under
:class:`layers.Tracing` and adds the per-layer metrics.  ``--t0`` is
the parent's ``time.monotonic()`` just before it spawned this process
(the clock is system-wide), so ``setup_s`` covers interpreter start-up
and imports too.  :func:`run_iteration` is the
same iteration in-process, also on the reduced input sizes the
benchmark's tests use.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import digests  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Full-size workload seeds with a recorded reference; the benchmark folds
#: its ``--seed`` onto them.
REFERENCE_SEEDS = 48
REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference.json"
)


def reference_for(workload: str, size: str, seed: int) -> Optional[Dict]:
    """The recorded reference outputs for one input, or None."""
    with open(REFERENCE_PATH) as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(size, {}).get(str(seed))


@contextlib.contextmanager
def _own_tempdir() -> Iterator[None]:
    """Point :mod:`tempfile` at a fresh directory for one iteration.

    Temp files the program makes (the streamed build's shard stores) then
    land where nothing else does, so their size can be measured.
    """
    previous = tempfile.tempdir
    with tempfile.TemporaryDirectory(prefix="perfbench-") as scratch:
        tempfile.tempdir = scratch
        try:
            yield
        finally:
            tempfile.tempdir = previous


def run_iteration(
    workload: str,
    seed: int,
    mode: str = "timed",
    size: str = "full",
    t0: Optional[float] = None,
) -> Dict[str, Any]:
    """Set up, run and check one iteration; returns the result record."""
    from repro.obs.runtime import peak_rss_bytes

    module = WORKLOADS[workload]
    start = time.monotonic() if t0 is None else t0
    tracing = layers.Tracing() if mode == "traced" else None
    with _own_tempdir(), (
        tracing if tracing is not None else contextlib.nullcontext()
    ):
        state = module.setup(seed, size)
        setup_s = time.monotonic() - start
        hwm_before = peak_rss_bytes()
        began = time.perf_counter()
        outputs = module.timed(state, traced=tracing is not None)
        wall_s = time.perf_counter() - began
        peak_rss_mib = peak_rss_bytes() / (1024.0 * 1024.0)
    observed = module.observe(state, outputs)
    problems = list(observed["problems"])
    reference = None
    if hasattr(module, "reference"):
        reference = reference_for(workload, size, seed)
        if reference is None:
            problems.append(
                f"no reference recorded for {workload}/{size}/seed {seed}; "
                "run perfbench/record_reference.py"
            )
    failed = (
        observed["ops"] if problems else module.failures(observed, reference)
    )
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "work": observed["work"],
        "attempted": observed["ops"],
        "failed": failed,
        "problems": problems,
        "digest": digests.of_json(observed["digests"]),
    }
    if tracing is not None:
        record["layers"] = tracing.metrics(outputs["layers"], hwm_before)
    return record


def main(argv: "Optional[list]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), default="timed")
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    record = run_iteration(args.workload, args.seed, args.mode, t0=args.t0)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
