"""Append-only segment files and BlockServer garbage collection (§2.1).

The BlockServer stores each 32 GiB segment as an append-only file on the
ChunkServer: every logical write appends a new extent, invalidating the
extent that previously held those blocks.  Garbage accumulates until the
BlockServer compacts the file — rewriting only the live data — which is
the background GC the paper mentions and a second-order reason write
balance matters (GC multiplies the write traffic a BS carries).

:func:`simulate_gc` replays a trace's writes against per-segment
live/garbage accounting, triggers compaction when a segment's garbage
ratio crosses a threshold, and accounts the resulting write
amplification:

    WA = (user bytes + GC-rewritten bytes) / user bytes

Hot blocks that are *re-written* heavily (the paper's write-dominant
hottest blocks) generate garbage at the rewrite rate, so skewed traffic
also concentrates GC work — quantified by :func:`simulate_gc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.trace.records import OpKind
from repro.util.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class GcConfig:
    """Compaction policy of the BlockServer GC.

    Accounting is at *extent* granularity (``extent_bytes``), coarser than
    the 4 KiB LBA page: the append-only file tracks extents and GC
    decisions are per extent.  A logical write touching any part of a live
    extent invalidates that whole extent.
    """

    #: Compact a segment when garbage exceeds this fraction of the file.
    garbage_threshold: float = 0.5
    #: Extent granularity of invalidation.
    extent_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if not 0.0 < self.garbage_threshold < 1.0:
            raise ConfigError("garbage_threshold must be in (0, 1)")
        if self.extent_bytes <= 0:
            raise ConfigError("extent_bytes must be positive")


@dataclass
class GcStats:
    """Aggregate GC accounting over a replay."""

    user_write_bytes: int = 0
    gc_rewritten_bytes: int = 0
    compactions: int = 0
    per_segment_rewrites: Dict[int, int] = field(default_factory=dict)

    @property
    def write_amplification(self) -> float:
        """(user + GC) / user; 1.0 when no compaction ever ran."""
        if self.user_write_bytes == 0:
            return 1.0
        return (
            self.user_write_bytes + self.gc_rewritten_bytes
        ) / self.user_write_bytes


def simulate_gc(
    traces: TraceDataset, config: GcConfig = GcConfig()
) -> GcStats:
    """Replay a trace's writes through the GC; returns the accounting.

    Offsets are segment-relative'd by the trace's segment ids, so the
    per-segment garbage profiles reflect each segment's own rewrite
    behaviour (the hottest blocks dominate).  Writes apply in timestamp
    order, and the result equals a write-by-write replay
    (``tests/oracles/gc.py``), computed per segment as arrays:

    - a write's garbage is the extents it touches that were live before,
      i.e. not touched for the first time, counted from one
      ``np.unique`` over (segment, extent) pairs;
    - live extents only grow (compaction keeps them), so after write
      ``i`` a segment holds ``L_i`` live extents and ``G_i - G_c``
      garbage extents, where ``G`` counts garbage since the segment's
      first write and ``c`` is its last compaction;
    - the next compaction is the first write with ``(G_i - G_c) /
      (L_i + G_i - G_c) >= threshold``.  A running max of ``(1 -
      threshold) * G - threshold * L`` jumps to the first write that can
      cross, and the exact ratio test confirms it.
    """
    order = np.argsort(traces.timestamp, kind="stable")
    writes = order[traces.op[order] == int(OpKind.WRITE)]
    # Group by segment; the stable sort keeps each segment's time order,
    # and ``time_rank`` maps a grouped write back to its place in time.
    time_rank = np.argsort(traces.segment_id[writes], kind="stable")
    writes = writes[time_rank]
    segments = traces.segment_id[writes]
    offsets = traces.offset_bytes[writes]
    sizes = traces.size_bytes[writes]
    stats = GcStats(user_write_bytes=int(sizes.sum()))
    if not sizes.size:
        return stats
    if np.any(sizes <= 0) or np.any(offsets < 0):
        raise SimulationError("writes need positive size, offset >= 0")
    extent_bytes = config.extent_bytes
    theta = config.garbage_threshold

    first = offsets // extent_bytes
    touched = (offsets + sizes - 1) // extent_bytes - first + 1
    pair_write = np.repeat(np.arange(sizes.size), touched)
    pair_extent = (
        first[pair_write]
        + np.arange(pair_write.size)
        - np.repeat(np.cumsum(touched) - touched, touched)
    )
    seg_ids, seg_start, seg_rank = np.unique(
        segments, return_index=True, return_inverse=True
    )
    span = int(pair_extent.max()) + 1
    _, first_touch = np.unique(
        seg_rank[pair_write] * span + pair_extent, return_index=True
    )
    fresh = np.bincount(pair_write[first_touch], minlength=sizes.size)
    seg_end = np.append(seg_start[1:], sizes.size)
    # Per-segment running sums: global cumsums less the segment's base.
    live = np.cumsum(fresh)
    garbage = np.cumsum(touched - fresh)
    base_index = np.repeat(seg_start, seg_end - seg_start)
    live -= live[base_index] - fresh[base_index]
    garbage -= garbage[base_index] - (touched - fresh)[base_index]

    headroom = (1.0 - theta) * garbage - theta * live
    slack = 1e-9 * (1.0 + float(garbage.max()) + float(live.max()))
    # Only segments whose headroom ever nears zero can compact at all.
    can = np.maximum.reduceat(headroom, seg_start) >= -slack

    def crosses(rows: np.ndarray, base: int) -> np.ndarray:
        g = (garbage[rows] - base) * extent_bytes
        size = live[rows] * extent_bytes + g
        return g / size >= theta

    compactions: "List[tuple[int, int, int]]" = []  # (time, seg, bytes)
    for seg, a, b in zip(
        seg_ids[can].tolist(), seg_start[can].tolist(), seg_end[can].tolist()
    ):
        peak = np.maximum.accumulate(headroom[a:b])
        base = 0
        pos = 0
        while pos < b - a:
            at = pos + int(
                np.searchsorted(peak[pos:], (1.0 - theta) * base - slack)
            )
            if at == b - a:
                break
            if not crosses(np.array([a + at]), base)[0]:
                hits = np.flatnonzero(crosses(np.arange(a + at, b), base))
                if not hits.size:
                    break
                at += int(hits[0])
            compactions.append((
                int(time_rank[a + at]), seg,
                int(live[a + at]) * extent_bytes,
            ))
            base = int(garbage[a + at])
            pos = at + 1

    # In time order, so segments enter the per-segment map in the order
    # of their first compaction, as in the write-by-write replay.
    rewrites = stats.per_segment_rewrites
    for _, seg, rewritten in sorted(compactions):
        stats.gc_rewritten_bytes += rewritten
        stats.compactions += 1
        rewrites[seg] = rewrites.get(seg, 0) + rewritten
    return stats
