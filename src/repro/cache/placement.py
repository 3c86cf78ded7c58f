"""CN-cache vs BS-cache placement comparison (§7.3.2, Fig 7(b)-(d)).

Both locations run a frozen cache over each *cacheable* VD's hottest block
(cacheable: hottest-block access rate above a threshold, 25% in the paper).

- **Latency gain**: per direction, the ratio of the latency percentile with
  the cache to the percentile without it (lower is better).  A CN-cache hit
  never leaves the compute node; a BS-cache hit crosses the frontend but
  skips the ChunkServer and backend network.
- **Cache space utilization**: caches are provisioned per node, so the
  spread of cacheable-VD counts across nodes measures over-provisioning.
  CN-cache spreads worse than BS-cache because one compute node can host
  many hot VDs while another hosts none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cache.hotspot import HottestBlock, hottest_block
from repro.cluster.latency import LatencyModel
from repro.trace.dataset import TraceDataset, end_to_end_us
from repro.trace.records import OpKind
from repro.util.errors import ConfigError
from repro.workload.fleet import Fleet


@dataclass(frozen=True)
class CachePlacementConfig:
    """Parameters of the placement study."""

    block_bytes: int = 2048 * 1024 * 1024
    access_rate_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ConfigError("block_bytes must be positive")
        if not 0.0 < self.access_rate_threshold < 1.0:
            raise ConfigError("access_rate_threshold must be in (0, 1)")


def find_cacheable_blocks(
    traces: TraceDataset,
    fleet: Fleet,
    config: CachePlacementConfig,
) -> "Dict[int, HottestBlock]":
    """Hottest blocks of every cacheable VD, keyed by vd_id."""
    blocks: Dict[int, HottestBlock] = {}
    for vd in fleet.vds:
        block = hottest_block(
            traces, vd.vd_id, config.block_bytes, vd.capacity_bytes
        )
        if block is not None and block.access_rate >= config.access_rate_threshold:
            blocks[vd.vd_id] = block
    return blocks


def latency_gain(
    traces: TraceDataset,
    fleet: Fleet,
    location: str,
    latency_model: LatencyModel,
    rng: np.random.Generator,
    config: CachePlacementConfig = CachePlacementConfig(),
    percentiles: "tuple[float, ...]" = (0.0, 50.0, 99.0),
    direction: str = "read",
) -> "Optional[Dict[float, float]]":
    """Percentile latency gains (with/without) for one cache location.

    Returns ``{percentile: gain}`` over the traced IOs of cacheable VDs,
    or None when no VD qualifies or the direction has no IOs.
    """
    if direction not in ("read", "write"):
        raise ConfigError("direction must be 'read' or 'write'")
    blocks = find_cacheable_blocks(traces, fleet, config)
    if not blocks:
        return None
    vd_ids = np.array(sorted(blocks), dtype=np.int64)
    mask = np.isin(traces.vd_id, vd_ids)
    op = int(OpKind.WRITE) if direction == "write" else int(OpKind.READ)
    mask &= traces.op == op
    if not mask.any():
        return None
    # Gather only the columns read below, not the whole trace slice.
    rows = np.flatnonzero(mask)
    offsets = traces.offset_bytes[rows]

    # Each traced IO's block, looked up in the sorted vd_id -> block table.
    row = np.searchsorted(vd_ids, traces.vd_id[rows])
    starts = np.array([blocks[vd].start_byte for vd in vd_ids.tolist()])[row]
    ends = np.array([blocks[vd].end_byte for vd in vd_ids.tolist()])[row]
    hits = (offsets >= starts) & (offsets < ends)

    without = end_to_end_us(
        traces.lat_compute_us[rows],
        traces.lat_frontend_us[rows],
        traces.lat_block_server_us[rows],
        traces.lat_backend_us[rows],
        traces.lat_chunk_server_us[rows],
    )
    with_cache = without.copy()
    if hits.any():
        hit_rows = rows[hits]
        with_cache[hits] = latency_model.cached_latency(
            rng,
            traces.op[hit_rows].astype(bool),
            traces.size_bytes[hit_rows],
            location,
        )
    gains: Dict[float, float] = {}
    for percentile in percentiles:
        baseline = float(np.percentile(without, percentile))
        cached = float(np.percentile(with_cache, percentile))
        gains[percentile] = cached / baseline if baseline > 0 else 1.0
    return gains


def cacheable_vd_counts(
    traces: TraceDataset,
    fleet: Fleet,
    location: str,
    storage_placement: "Dict[int, int]",
    config: CachePlacementConfig = CachePlacementConfig(),
) -> List[int]:
    """Cacheable-VD count per node for one cache location.

    For ``"compute_node"`` a VD counts toward the node hosting its VM; for
    ``"block_server"`` it counts toward the BS holding the segment its
    hottest block lives in (``storage_placement`` is the segment -> BS map).
    Every node appears, including those with zero cacheable VDs — the zeros
    are precisely the wasted provisioned cache.
    """
    if location not in ("compute_node", "block_server"):
        raise ConfigError(
            "location must be 'compute_node' or 'block_server', "
            f"got {location!r}"
        )
    blocks = find_cacheable_blocks(traces, fleet, config)
    if location == "compute_node":
        counts = {node: 0 for node in range(fleet.config.num_compute_nodes)}
        for vd_id in blocks:
            vm = fleet.vms[fleet.vds[vd_id].vm_id]
            counts[vm.compute_node_id] += 1
    else:
        counts = {bs: 0 for bs in range(fleet.config.num_block_servers)}
        segment_bytes = fleet.config.segment_bytes
        for vd_id, block in blocks.items():
            vd = fleet.vds[vd_id]
            seg_index = min(
                block.start_byte // segment_bytes, vd.num_segments - 1
            )
            seg_id = vd.first_segment_id + seg_index
            counts[storage_placement[seg_id]] += 1
    return [counts[key] for key in sorted(counts)]
