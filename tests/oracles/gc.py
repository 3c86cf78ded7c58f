"""Write-by-write GC replay, kept as a test oracle.

:class:`SegmentFile` tracks one append-only segment's live and garbage
extents under logical writes; :class:`GarbageCollector` applies writes
one at a time and compacts a segment as soon as its garbage ratio
crosses the threshold.  :func:`reference_simulate_gc` feeds it a trace
the way :func:`repro.cluster.gc.simulate_gc` reads one.  It is easy to
audit and slow; the array form must return the same accounting
(``tests/cluster/test_gc.py``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cluster.gc import GcConfig, GcStats
from repro.trace.dataset import TraceDataset
from repro.trace.records import OpKind
from repro.util.errors import SimulationError


class SegmentFile:
    """Live/garbage accounting of one append-only segment file.

    Tracks which logical extents currently hold live data; a write to an
    extent that is already live turns the old copy into garbage.  All byte
    figures are extent-rounded.
    """

    def __init__(self, segment_id: int, config: GcConfig = GcConfig()):
        self.segment_id = segment_id
        self.config = config
        self._live: set = set()  # extent indices holding live data
        self._garbage_extents = 0
        self._appended_extents = 0

    @property
    def live_bytes(self) -> int:
        return len(self._live) * self.config.extent_bytes

    @property
    def garbage_bytes(self) -> int:
        return self._garbage_extents * self.config.extent_bytes

    @property
    def appended_bytes(self) -> int:
        return self._appended_extents * self.config.extent_bytes

    @property
    def file_bytes(self) -> int:
        """Physical file size: live data plus not-yet-collected garbage."""
        return self.live_bytes + self.garbage_bytes

    @property
    def garbage_ratio(self) -> float:
        size = self.file_bytes
        return self.garbage_bytes / size if size else 0.0

    def write(self, offset: int, size: int) -> None:
        """Apply one logical write: append extents, invalidate old copies."""
        if size <= 0 or offset < 0:
            raise SimulationError("writes need positive size, offset >= 0")
        extent_bytes = self.config.extent_bytes
        first = offset // extent_bytes
        last = (offset + size - 1) // extent_bytes
        touched = range(first, last + 1)
        self._garbage_extents += len(self._live.intersection(touched))
        self._live.update(touched)
        self._appended_extents += len(touched)

    def compact(self) -> int:
        """Rewrite live data, dropping all garbage; returns bytes rewritten."""
        rewritten = self.live_bytes
        self._garbage_extents = 0
        return rewritten

    @property
    def needs_compaction(self) -> bool:
        return self.garbage_ratio >= self.config.garbage_threshold


class GarbageCollector:
    """Threshold-driven compaction over a set of segment files."""

    def __init__(self, config: GcConfig = GcConfig()):
        self.config = config
        self._files: Dict[int, SegmentFile] = {}
        self.stats = GcStats()

    def file(self, segment_id: int) -> SegmentFile:
        if segment_id not in self._files:
            self._files[segment_id] = SegmentFile(segment_id, self.config)
        return self._files[segment_id]

    def write(self, segment_id: int, offset: int, size: int) -> None:
        """Apply a logical write and compact if the threshold is crossed."""
        segment = self.file(segment_id)
        segment.write(offset, size)
        self.stats.user_write_bytes += size
        if segment.needs_compaction:
            rewritten = segment.compact()
            self.stats.gc_rewritten_bytes += rewritten
            self.stats.compactions += 1
            self.stats.per_segment_rewrites[segment_id] = (
                self.stats.per_segment_rewrites.get(segment_id, 0) + rewritten
            )

    def segments(self) -> List[int]:
        return sorted(self._files)


def reference_simulate_gc(
    traces: TraceDataset, config: GcConfig = GcConfig()
) -> GcStats:
    """:func:`repro.cluster.gc.simulate_gc`, one write at a time."""
    gc = GarbageCollector(config)
    order = np.argsort(traces.timestamp, kind="stable")
    ops = traces.op[order]
    segments = traces.segment_id[order]
    offsets = traces.offset_bytes[order]
    sizes = traces.size_bytes[order]
    writes = ops == int(OpKind.WRITE)
    for seg, off, size in zip(
        segments[writes], offsets[writes], sizes[writes]
    ):
        gc.write(int(seg), int(off), int(size))
    return gc.stats
