"""Hottest-block analysis over the trace data (§7.1, §7.2, Fig 6).

For a VD, the LBA space is divided into fixed-size blocks; the block with
the highest access count is the VD's *hottest block*.  The paper measures
its access rate vs its LBA share (Fig 6(a)/(b)), its write dominance
(Fig 6(c)), and its *hot rate* (Fig 6(d)): the share of short windows in
which the block is at least as hot as its long-run average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.stats.ratios import wr_ratio
from repro.trace.dataset import TraceDataset
from repro.trace.records import OpKind
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class HottestBlock:
    """The hottest fixed-size block of one VD."""

    vd_id: int
    block_bytes: int
    block_index: int
    access_rate: float        # share of the VD's IOs landing in the block
    lba_share: float          # block size / VD capacity
    num_accesses: int

    @property
    def start_byte(self) -> int:
        return self.block_index * self.block_bytes

    @property
    def end_byte(self) -> int:
        return self.start_byte + self.block_bytes


def _block_ids(offsets: np.ndarray, block_bytes: int) -> np.ndarray:
    if block_bytes <= 0:
        raise ConfigError("block_bytes must be positive")
    return offsets // block_bytes


def hottest_block(
    traces: TraceDataset,
    vd_id: int,
    block_bytes: int,
    capacity_bytes: int,
) -> Optional[HottestBlock]:
    """Locate a VD's hottest block; None if the VD has no traced IOs."""
    if capacity_bytes <= 0:
        raise ConfigError("capacity_bytes must be positive")
    offsets = traces.offset_bytes[traces.group_rows("vd_id", vd_id)]
    if offsets.size == 0:
        return None
    blocks = _block_ids(offsets, block_bytes)
    ids, counts = np.unique(blocks, return_counts=True)
    best = int(np.argmax(counts))
    return HottestBlock(
        vd_id=vd_id,
        block_bytes=block_bytes,
        block_index=int(ids[best]),
        access_rate=float(counts[best] / offsets.size),
        lba_share=min(1.0, block_bytes / capacity_bytes),
        num_accesses=int(counts[best]),
    )


def hottest_block_wr_ratio(
    traces: TraceDataset, block: HottestBlock
) -> float:
    """wr_ratio (by IO count) of the traffic inside the hottest block."""
    rows = traces.group_rows("vd_id", block.vd_id)
    offsets = traces.offset_bytes[rows]
    in_block = (offsets >= block.start_byte) & (offsets < block.end_byte)
    ops = traces.op[rows[in_block]]
    writes = float((ops == int(OpKind.WRITE)).sum())
    reads = float((ops == int(OpKind.READ)).sum())
    return wr_ratio(writes, reads)


def hot_rate(
    traces: TraceDataset,
    block: HottestBlock,
    window_seconds: float = 300.0,
) -> Optional[float]:
    """Share of windows where the block beats its long-run access rate.

    Only windows in which the VD issued IOs count.  Returns None when no
    window has traffic (cannot be measured).
    """
    if window_seconds <= 0:
        raise ConfigError("window_seconds must be positive")
    rows = traces.group_rows("vd_id", block.vd_id)
    if rows.size == 0:
        return None
    windows = np.floor(traces.timestamp[rows] / window_seconds).astype(
        np.int64
    )
    offsets = traces.offset_bytes[rows]
    in_block = (offsets >= block.start_byte) & (offsets < block.end_byte)
    num_windows = int(windows.max()) + 1
    # Integer counts, converted to float exactly.
    total = np.bincount(windows, minlength=num_windows).astype(float)
    hot = np.bincount(windows[in_block], minlength=num_windows).astype(float)
    active = total > 0
    if not active.any():
        return None
    rates = hot[active] / total[active]
    return float(np.mean(rates >= block.access_rate))
