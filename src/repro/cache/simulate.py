"""Trace-driven cache simulation (§7.3.1, Fig 7(a)).

Replays one VD's IO trace (time-ordered) through a cache with 4 KiB pages.
Multi-page IOs touch only their first page (the paper traces one offset
per IO); the simplification affects all policies identically.  The paper
sizes each policy's cache to the hottest-block size and anchors the
frozen cache at the hottest block's LBA.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cache.fastreplay import (
    PAGE_BYTES,
    fifo_hit_count,
    frozen_hit_count,
    lru_hit_count,
    pages_in_time_order,
    prepare_pages,
)
from repro.cache.hotspot import hottest_block
from repro.obs.runtime import get_telemetry
from repro.trace.dataset import TraceDataset


def simulate_vd_caches(
    traces: TraceDataset,
    vd_id: int,
    block_bytes_list: Sequence[int],
    capacity_bytes: int,
) -> "Dict[int, Dict[str, float]] | None":
    """Hit ratios of FIFO, LRU, and the frozen cache for one VD.

    For each block size, all three caches get that capacity (in pages)
    and the frozen cache holds the pages of the VD's hottest block of
    that size.  The VD's page stream is prepared once and shared by
    every (block size, policy) count.  Returns
    ``{block_bytes: {policy: hit_ratio}}``, or None when the VD has no
    traced IOs.
    """
    rows = traces.group_rows("vd_id", vd_id)
    if rows.size == 0:
        return None
    prepared = prepare_pages(
        pages_in_time_order(traces.timestamp[rows], traces.offset_bytes[rows])
    )
    accesses = prepared.accesses
    out: "Dict[int, Dict[str, float]]" = {}
    for block_bytes in block_bytes_list:
        block = hottest_block(traces, vd_id, block_bytes, capacity_bytes)
        capacity_pages = max(1, block_bytes // PAGE_BYTES)
        start_page = block.start_byte // PAGE_BYTES
        end_page = -(-(block.start_byte + block.block_bytes) // PAGE_BYTES)
        out[block_bytes] = {
            "fifo": fifo_hit_count(prepared, capacity_pages) / accesses,
            "lru": lru_hit_count(prepared, capacity_pages) / accesses,
            "frozen": frozen_hit_count(
                prepared, start_page, end_page - start_page
            ) / accesses,
        }
    telemetry = get_telemetry()
    if telemetry.enabled:
        for policy in ("fifo", "lru", "frozen"):
            telemetry.counter("cache.replay.pages", policy=policy).inc(
                accesses * len(block_bytes_list)
            )
    return out
