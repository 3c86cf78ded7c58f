"""Tests for the append-only segment GC model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.gc import GcConfig, simulate_gc
from repro.trace.dataset import TraceDataset
from tests.oracles.gc import (
    GarbageCollector,
    SegmentFile,
    reference_simulate_gc,
)
from repro.util.errors import ConfigError, SimulationError


class TestGcConfig:
    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            GcConfig(garbage_threshold=0.0)
        with pytest.raises(ConfigError):
            GcConfig(garbage_threshold=1.0)
        with pytest.raises(ConfigError):
            GcConfig(extent_bytes=0)


class TestSegmentFile:
    def test_fresh_write_all_live(self):
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        segment.write(0, 8192)
        assert segment.live_bytes == 8192
        assert segment.garbage_bytes == 0

    def test_rewrite_creates_garbage(self):
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        segment.write(0, 4096)
        segment.write(0, 4096)
        assert segment.live_bytes == 4096
        assert segment.garbage_bytes == 4096
        assert segment.garbage_ratio == pytest.approx(0.5)

    def test_partial_extent_write_rounds_up(self):
        # Extent-granular accounting: a 200-byte write occupies one extent.
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        segment.write(100, 200)
        assert segment.live_bytes == 4096

    def test_compaction_drops_garbage(self):
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        segment.write(0, 4096)
        segment.write(0, 4096)
        rewritten = segment.compact()
        assert rewritten == 4096
        assert segment.garbage_bytes == 0
        assert segment.live_bytes == 4096

    def test_needs_compaction_threshold(self):
        segment = SegmentFile(
            0, GcConfig(garbage_threshold=0.4, extent_bytes=4096)
        )
        segment.write(0, 4096)
        assert not segment.needs_compaction
        segment.write(0, 4096)
        assert segment.needs_compaction

    def test_rejects_bad_writes(self):
        segment = SegmentFile(0)
        with pytest.raises(SimulationError):
            segment.write(-1, 4096)
        with pytest.raises(SimulationError):
            segment.write(0, 0)

    @settings(max_examples=40)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(0, 1 << 20), st.integers(1, 64 * 1024)
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_accounting_invariants(self, writes):
        # Property: appended == live + garbage + compacted-away, and all
        # counters stay non-negative.
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        compacted = 0
        for offset, size in writes:
            segment.write(offset, size)
            if segment.needs_compaction:
                compacted += segment.garbage_bytes
                segment.compact()
        assert segment.live_bytes >= 0
        assert segment.garbage_bytes >= 0
        assert segment.appended_bytes == (
            segment.live_bytes + segment.garbage_bytes + compacted
        )


class TestGarbageCollector:
    def test_no_rewrites_means_wa_one(self):
        gc = GarbageCollector(GcConfig(extent_bytes=4096))
        for page in range(16):
            gc.write(0, page * 4096, 4096)
        assert gc.stats.write_amplification == 1.0
        assert gc.stats.compactions == 0

    def test_rewrites_drive_amplification(self):
        gc = GarbageCollector(
            GcConfig(garbage_threshold=0.3, extent_bytes=4096)
        )
        for __ in range(50):
            gc.write(0, 0, 4096)  # hammer a single page
        assert gc.stats.compactions > 0
        assert gc.stats.write_amplification > 1.0

    def test_segments_tracked_independently(self):
        gc = GarbageCollector(GcConfig(extent_bytes=4096))
        gc.write(0, 0, 4096)
        gc.write(5, 0, 4096)
        assert gc.segments() == [0, 5]
        assert gc.file(0).live_bytes == 4096

    def test_empty_stats(self):
        assert GarbageCollector().stats.write_amplification == 1.0


class TestSegmentFileEdgeCases:
    def test_compact_empty_segment_is_noop(self):
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        assert segment.compact() == 0
        assert segment.live_bytes == 0
        assert segment.garbage_bytes == 0
        assert segment.appended_bytes == 0

    def test_empty_segment_never_needs_compaction(self):
        # garbage_ratio of a zero-byte file is 0.0, not NaN, and stays
        # below any valid threshold.
        segment = SegmentFile(0, GcConfig(garbage_threshold=0.01))
        assert segment.garbage_ratio == 0.0
        assert not segment.needs_compaction
        assert segment.file_bytes == 0

    def test_spanning_write_invalidates_only_live_overlap(self):
        # extents: write A covers {0,1}; write B covers {1,2}.  Only the
        # overlap (extent 1) turns to garbage.
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        segment.write(0, 8192)
        segment.write(4096, 8192)
        assert segment.live_bytes == 3 * 4096
        assert segment.garbage_bytes == 4096
        assert segment.appended_bytes == 4 * 4096

    def test_threshold_boundary_is_inclusive(self):
        # garbage_ratio == threshold triggers compaction (>=).
        segment = SegmentFile(
            0, GcConfig(garbage_threshold=0.5, extent_bytes=4096)
        )
        segment.write(0, 4096)
        segment.write(0, 4096)
        assert segment.garbage_ratio == pytest.approx(0.5)
        assert segment.needs_compaction

    def test_compaction_preserves_appended_history(self):
        segment = SegmentFile(0, GcConfig(extent_bytes=4096))
        segment.write(0, 4096)
        segment.write(0, 4096)
        appended_before = segment.appended_bytes
        segment.compact()
        assert segment.appended_bytes == appended_before


def _empty_traces():
    return TraceDataset(
        **{
            name: []
            for name in (
                *TraceDataset.INT_FIELDS,
                *TraceDataset.FLOAT_FIELDS,
            )
        }
    )


class TestSimulateGc:
    def test_empty_trace_dataset_is_noop(self):
        stats = simulate_gc(_empty_traces())
        assert stats.user_write_bytes == 0
        assert stats.gc_rewritten_bytes == 0
        assert stats.compactions == 0
        assert stats.write_amplification == 1.0
        assert stats.per_segment_rewrites == {}

    def test_read_only_traces_never_write(self, small_fleet, rngs):
        from repro.cluster import EBSSimulator, SimulationConfig
        from repro.trace.records import OpKind

        result = EBSSimulator(
            small_fleet,
            SimulationConfig(duration_seconds=30, trace_sampling_rate=0.1),
            rngs.child("gc-ro"),
        ).run()
        reads = result.traces.where(
            result.traces.op == int(OpKind.READ)
        )
        stats = simulate_gc(reads)
        assert stats.user_write_bytes == 0
        assert stats.write_amplification == 1.0

    def test_on_simulated_traces(self, small_fleet, rngs):
        from repro.cluster import EBSSimulator, SimulationConfig

        result = EBSSimulator(
            small_fleet,
            SimulationConfig(duration_seconds=120, trace_sampling_rate=0.2),
            rngs.child("gc"),
        ).run()
        stats = simulate_gc(result.traces)
        assert stats.user_write_bytes > 0
        assert stats.write_amplification >= 1.0
        # The hot rewrite pattern produces some garbage collection.
        assert stats.compactions >= 0


def _writes(rows):
    """A trace of ``(timestamp, segment, offset, size, is_write)`` rows."""
    n = len(rows)
    columns = {name: np.zeros(n, dtype=np.int64) for name in TraceDataset.INT_FIELDS}
    columns.update({name: np.zeros(n) for name in TraceDataset.FLOAT_FIELDS})
    if n:
        ts, seg, off, size, op = (np.array(c) for c in zip(*rows))
        columns.update(
            timestamp=ts.astype(float), segment_id=seg, offset_bytes=off,
            size_bytes=size, op=op.astype(np.int64),
        )
    return TraceDataset(**columns)


def _accounting(stats):
    return (
        stats.user_write_bytes,
        stats.gc_rewritten_bytes,
        stats.compactions,
        list(stats.per_segment_rewrites.items()),
    )


class TestSimulateGcOracle:
    """The array replay equals the write-by-write oracle exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(0, 3),
                st.integers(0, 1 << 17),
                st.integers(1, 40_000),
                st.booleans(),
            ),
            max_size=120,
        ),
        threshold=st.sampled_from([0.05, 0.25, 1 / 3, 0.5, 0.7, 0.95]),
        extent=st.sampled_from([512, 4096, 65536]),
    )
    def test_matches_write_by_write_replay(self, rows, threshold, extent):
        traces = _writes(rows)
        config = GcConfig(garbage_threshold=threshold, extent_bytes=extent)
        assert _accounting(simulate_gc(traces, config)) == _accounting(
            reference_simulate_gc(traces, config)
        )

    @pytest.mark.parametrize("threshold", [0.5, 0.25, 0.75])
    def test_threshold_ties_compact(self, threshold):
        # One extent rewritten over and over: the ratio lands exactly on
        # 1/2, 1/4... of the file, so ties at the threshold must compact.
        rows = [(t, 0, 0, 4096, True) for t in range(40)]
        rows += [(t, 1, 4096 * (t % 3), 4096, True) for t in range(40)]
        traces = _writes(rows)
        config = GcConfig(garbage_threshold=threshold, extent_bytes=4096)
        got = simulate_gc(traces, config)
        assert got.compactions > 0
        assert _accounting(got) == _accounting(
            reference_simulate_gc(traces, config)
        )

    def test_segments_keep_first_compaction_order(self):
        # Segment 7 compacts first in time, though segment 2 sorts first.
        rows = [(0, 7, 0, 4096, True), (1, 7, 0, 4096, True)]
        rows += [(2, 2, 0, 4096, True), (3, 2, 0, 4096, True)]
        got = simulate_gc(_writes(rows), GcConfig(extent_bytes=4096))
        assert list(got.per_segment_rewrites) == [7, 2]

    def test_rejects_bad_writes(self):
        with pytest.raises(SimulationError):
            simulate_gc(_writes([(0, 0, 0, 0, True)]))

    def test_on_simulated_traces(self, small_fleet, rngs):
        from repro.cluster import EBSSimulator, SimulationConfig

        result = EBSSimulator(
            small_fleet,
            SimulationConfig(duration_seconds=120, trace_sampling_rate=0.2),
            rngs.child("gc"),
        ).run()
        for config in (GcConfig(), GcConfig(0.3, 4096)):
            assert _accounting(simulate_gc(result.traces, config)) == (
                _accounting(reference_simulate_gc(result.traces, config))
            )
