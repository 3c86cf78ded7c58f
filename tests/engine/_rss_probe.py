"""Subprocess probe: run one simulation and print peak RSS in bytes.

``ru_maxrss`` is a per-process high-water mark, so the monolithic and
streamed runs must live in *separate* processes for the comparison to
mean anything — this module is the payload that ``test_memory.py``
launches twice.  Metric-row thresholds are set absurdly high so both
modes emit zero metric rows and the RSS difference is dominated by the
working set the engine is supposed to bound: the stacked
``(entity, second)`` matrices and the fast-path chunk temporaries.

Usage::

    python tests/engine/_rss_probe.py {mono|streamed}
"""

import sys

from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.engine import StreamingSimulator
from repro.obs.runtime import peak_rss_bytes
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet

FLEET = FleetConfig(
    dc_id=0,
    num_users=24,
    num_vms=160,
    num_compute_nodes=16,
    num_storage_nodes=12,
)
SIM = SimulationConfig(
    duration_seconds=1200,
    trace_sampling_rate=0.001,
    # Zero metric rows: the probe measures array working sets, not the
    # (identical-by-parity-tests) metric tables.
    min_record_bytes=1e18,
    min_record_iops=1e18,
)
CHUNK_EPOCHS = 2


def main(mode: str) -> int:
    rngs = RngFactory(1234)
    fleet = build_fleet(FLEET, rngs)
    simulator = EBSSimulator(fleet, SIM, rngs)
    if mode == "mono":
        result = simulator.run()
    elif mode == "streamed":
        engine = StreamingSimulator(simulator, CHUNK_EPOCHS)
        try:
            result = simulator.run(traffic=engine.spill())
        finally:
            engine.cleanup()
    else:  # pragma: no cover - defensive
        raise SystemExit(f"unknown mode {mode!r}")
    # Touch the result so neither path can be optimized away.
    sink = float(result.wt_load_bps.sum()) + float(result.bs_load_bps.sum())
    rss = peak_rss_bytes()
    if rss is None:  # pragma: no cover - resource module always present
        raise SystemExit("peak_rss_bytes unavailable")
    print(f"{rss} {sink:.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
