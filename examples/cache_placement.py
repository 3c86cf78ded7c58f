#!/usr/bin/env python3
"""LBA hotspots and caching across the EBS stack (§7).

Finds each busy VD's hottest block, compares FIFO / LRU / frozen-cache hit
ratios at several cache sizes (Fig 7(a)), and weighs the CN-cache against
the BS-cache on write latency gain and provisioning spread (Fig 7(b)-(d)).

Run:  python examples/cache_placement.py
"""

import numpy as np

from repro.cache import (
    CachePlacementConfig,
    cacheable_vd_counts,
    hottest_block,
    latency_gain,
    simulate_vd_caches,
)
from repro.cluster import EBSSimulator, LatencyModel, SimulationConfig
from repro.util.rng import RngFactory
from repro.util.units import MiB
from repro.workload import FleetConfig, build_fleet


def main() -> None:
    rngs = RngFactory(42)
    fleet = build_fleet(
        FleetConfig(
            num_users=10, num_vms=40, num_compute_nodes=10, num_storage_nodes=6
        ),
        rngs,
    )
    print("Simulating one data center (dense trace sampling) ...")
    result = EBSSimulator(
        fleet,
        SimulationConfig(duration_seconds=600, trace_sampling_rate=1 / 20),
        rngs,
    ).run()
    traces = result.traces

    # Busy VDs only: hotspot statistics need enough sampled IOs.
    ids, counts = np.unique(traces.vd_id, return_counts=True)
    busy = [int(v) for v, c in zip(ids, counts) if c >= 500]
    print(f"{len(busy)} VDs with >= 500 traced IOs\n")

    block_bytes = 64 * MiB
    rates = []
    for vd_id in busy:
        block = hottest_block(
            traces, vd_id, block_bytes, fleet.vds[vd_id].capacity_bytes
        )
        if block:
            rates.append(block.access_rate)
    print(
        f"Hottest 64 MiB block: median access rate "
        f"{100 * np.median(rates):.1f}% of the VD's IOs"
    )

    print("\nCache hit ratios (median over busy VDs):")
    print(f"{'cache size':>10}  {'fifo':>6}  {'lru':>6}  {'frozen':>6}")
    sizes = (64 * MiB, 512 * MiB, 2048 * MiB)
    hits = {size: {"fifo": [], "lru": [], "frozen": []} for size in sizes}
    for vd_id in busy:
        # One call per VD prepares its page stream once for all sizes.
        out = simulate_vd_caches(
            traces, vd_id, sizes, fleet.vds[vd_id].capacity_bytes
        )
        for size, ratios in out.items():
            for policy, value in ratios.items():
                hits[size][policy].append(value)
    for size in sizes:
        print(
            f"{size // MiB:>7}MiB  "
            f"{np.median(hits[size]['fifo']):>6.3f}  "
            f"{np.median(hits[size]['lru']):>6.3f}  "
            f"{np.median(hits[size]['frozen']):>6.3f}"
        )

    model = LatencyModel()
    config = CachePlacementConfig(block_bytes=2048 * MiB)
    print("\nWrite latency gain (with-cache / without, lower is better):")
    for location in ("compute_node", "block_server"):
        gains = latency_gain(
            traces, fleet, location, model,
            rngs.get(f"lg/{location}"), config, direction="write",
        )
        if gains:
            print(
                f"  {location:<13} p0={100 * gains[0.0]:.0f}%  "
                f"p50={100 * gains[50.0]:.0f}%  p99={100 * gains[99.0]:.0f}%"
            )

    placement = result.storage.placement.primary_mapping()
    cn = cacheable_vd_counts(traces, fleet, "compute_node", placement, config)
    bs = cacheable_vd_counts(traces, fleet, "block_server", placement, config)
    print(
        "\nCacheable-VD spread (per-node provisioning waste): "
        f"CN-cache std {np.std(cn):.2f} vs BS-cache std {np.std(bs):.2f}"
    )


if __name__ == "__main__":
    main()
