"""Pins the array-based replay fast paths to the scalar reference.

Every fast path in :mod:`repro.cache.fastreplay` must produce hit/miss
counts identical to feeding the same page stream through
:meth:`Cache.access` one access at a time — across policies, capacities
(including eviction-forcing ones), and access patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import FifoCache, FrozenCache, LruCache
from repro.cache.fastreplay import (
    PAGE_BYTES,
    _fifo_hits_fixpoint,
    _fifo_hits_loop,
    _lru_hits_loop,
    fifo_hit_count,
    frozen_hit_count,
    lru_hit_count,
    pages_in_time_order,
    prepare_pages,
    replay_many,
    replay_pages_fast,
    replay_trace_fast,
)
from repro.cache.hotspot import hottest_block
from repro.cache.simulate import (
    replay_trace,
    simulate_vd_cache,
    simulate_vd_caches,
)
from repro.obs.runtime import telemetry_session
from repro.trace.dataset import TraceDataset
from repro.util import ConfigError
from repro.util.units import MiB

from tests.cache.test_hotspot import traces_with_hotspot


def scalar_hits(cache, pages) -> int:
    """Ground truth: one Cache.access call per page."""
    for page in pages:
        cache.access(int(page), False)
    return cache.stats.hits


def traces_from_pages(pages, timestamps=None) -> TraceDataset:
    """A minimal single-VD trace touching ``pages`` in order."""
    pages = np.asarray(pages, dtype=np.int64)
    n = pages.size
    if timestamps is None:
        timestamps = np.arange(n, dtype=float)
    zeros = np.zeros(n, dtype=np.int64)
    return TraceDataset(
        sampling_rate=1.0,
        trace_id=np.arange(n),
        op=zeros,
        size_bytes=np.full(n, 4096),
        offset_bytes=pages * PAGE_BYTES,
        user_id=zeros,
        vm_id=zeros,
        vd_id=zeros,
        qp_id=zeros,
        wt_id=zeros,
        compute_node_id=zeros,
        segment_id=zeros,
        block_server_id=zeros,
        storage_node_id=zeros,
        timestamp=np.asarray(timestamps, dtype=float),
        lat_compute_us=np.ones(n),
        lat_frontend_us=np.ones(n),
        lat_block_server_us=np.ones(n),
        lat_backend_us=np.ones(n),
        lat_chunk_server_us=np.ones(n),
    )


def _patterned_stream(rng, kind: int, n: int, universe: int) -> np.ndarray:
    if kind == 0:      # uniform random
        return rng.integers(0, universe, size=n)
    if kind == 1:      # zipf-skewed (hotspot-heavy, like the paper traces)
        return np.minimum(rng.zipf(1.3, size=n) - 1, universe)
    if kind == 2:      # pure scan (FIFO/LRU worst case)
        return np.arange(n) % (universe + 1)
    return (np.arange(n) % (universe + 1)) + rng.integers(0, 3, size=n)


class TestPreparePages:
    def test_hand_example(self):
        prep = prepare_pages(np.array([5, 5, 7, 5, 9, 7]))
        assert prep.dup_hits == 1             # the immediate 5,5 repeat
        np.testing.assert_array_equal(prep.stream, [5, 7, 5, 9, 7])
        assert prep.distinct == 3
        np.testing.assert_array_equal(prep.prev, [-1, -1, 0, -1, 1])
        np.testing.assert_array_equal(prep.dense, [0, 1, 0, 2, 1])
        assert prep.accesses == 6

    def test_empty(self):
        prep = prepare_pages(np.zeros(0, dtype=np.int64))
        assert prep.accesses == 0
        assert prep.distinct == 0
        assert prep.dup_hits == 0

    def test_all_duplicates_compress_to_one(self):
        prep = prepare_pages(np.full(50, 3))
        assert prep.stream.size == 1
        assert prep.dup_hits == 49
        assert prep.distinct == 1


class TestPagesInTimeOrder:
    def test_sorts_by_timestamp(self):
        traces = traces_from_pages([1, 2, 3], timestamps=[3.0, 1.0, 2.0])
        np.testing.assert_array_equal(pages_in_time_order(traces), [2, 3, 1])

    def test_already_sorted_passthrough(self):
        traces = traces_from_pages([4, 5, 6])
        np.testing.assert_array_equal(pages_in_time_order(traces), [4, 5, 6])


class TestFrozenFast:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 40, size=500)
        for start, cap in [(0, 10), (5, 3), (39, 1), (100, 4)]:
            fast = frozen_hit_count(pages, start, cap)
            ref = scalar_hits(FrozenCache(cap, start_page=start), pages)
            assert fast == ref

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            frozen_hit_count(np.array([1]), 0, 0)


class TestFifoEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_matches_scalar_across_capacities(self, kind):
        rng = np.random.default_rng(kind)
        for universe in (3, 17, 60):
            pages = _patterned_stream(rng, kind, 800, universe)
            prep = prepare_pages(pages)
            for cap in (1, 2, universe // 2 + 1, universe, universe + 7):
                fast = fifo_hit_count(pages, cap, prep)
                ref = scalar_hits(FifoCache(cap), pages)
                assert fast == ref, (kind, universe, cap)

    def test_no_eviction_boundary(self):
        # distinct == capacity: the shortcut applies; == capacity + 1: it
        # must not.
        pages = np.tile(np.arange(8), 5)
        assert fifo_hit_count(pages, 8) == scalar_hits(FifoCache(8), pages)
        assert fifo_hit_count(pages, 7) == scalar_hits(FifoCache(7), pages)

    def test_fixpoint_agrees_with_loop(self):
        # Large capacity (>= 256) with mild churn routes to the chunked
        # fixpoint; its result must equal the admission-counter loop.
        rng = np.random.default_rng(3)
        pages = rng.integers(0, 400, size=6000)
        prep = prepare_pages(pages)
        for cap in (256, 300, 399):
            assert prep.distinct <= 2 * cap  # fixpoint-eligible regime
            via_fixpoint = _fifo_hits_fixpoint(prep, cap)
            via_loop = _fifo_hits_loop(prep, cap)
            if via_fixpoint is not None:
                assert via_fixpoint == via_loop
            assert fifo_hit_count(pages, cap, prep) == via_loop

    def test_churn_heavy_stream_still_exact(self):
        # distinct far above capacity: routed to the loop; exactness is
        # what matters here.
        rng = np.random.default_rng(4)
        pages = rng.integers(0, 4000, size=9000)
        cap = 300
        assert fifo_hit_count(pages, cap) == scalar_hits(
            FifoCache(cap), pages
        )

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            fifo_hit_count(np.array([1]), 0)


class TestLruEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_matches_scalar_across_capacities(self, kind):
        rng = np.random.default_rng(10 + kind)
        for universe in (3, 17, 60):
            pages = _patterned_stream(rng, kind, 800, universe)
            prep = prepare_pages(pages)
            for cap in (1, 2, universe // 2 + 1, universe, universe + 7):
                fast = lru_hit_count(pages, cap, prep)
                ref = scalar_hits(LruCache(cap), pages)
                assert fast == ref, (kind, universe, cap)

    def test_suspect_with_duplicate_heavy_window_hits(self):
        # Gap exceeds the capacity but the reuse window holds one distinct
        # page repeated: stack distance 1 -> the re-access must hit.  This
        # exercises the suspect-counting path, not just the gap shortcut.
        cap = 4
        window = [7, 8] * (3 * cap)   # long window, only 2 distinct pages
        pages = np.array([42] + window + [42])
        fast = lru_hit_count(pages, cap)
        ref = scalar_hits(LruCache(cap), pages)
        assert fast == ref
        # The final 42 access is a hit despite its gap of len(window) + 1.
        assert fast == ref == len(pages) - 3

    def test_sure_miss_prefilter_window(self):
        # The reuse window is packed with first occurrences: at least
        # ``capacity`` distinct new pages guarantee the eviction.
        cap = 4
        pages = np.concatenate([[99], np.arange(cap), [99]])
        fast = lru_hit_count(pages, cap)
        ref = scalar_hits(LruCache(cap), pages)
        assert fast == ref == 0

    def test_large_stream_with_suspects_matches_loop(self):
        rng = np.random.default_rng(5)
        pages = np.minimum(rng.zipf(1.2, size=30000) - 1, 5000)
        prep = prepare_pages(pages)
        for cap in (512, 2048):
            fast = lru_hit_count(pages, cap, prep)
            assert fast == _lru_hits_loop(prep, cap)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            lru_hit_count(np.array([1]), 0)


@settings(max_examples=60, deadline=None)
@given(
    pages=st.lists(st.integers(0, 12), min_size=1, max_size=120),
    capacity=st.integers(1, 15),
)
def test_property_fast_equals_scalar(pages, capacity):
    pages = np.asarray(pages, dtype=np.int64)
    prep = prepare_pages(pages)
    assert fifo_hit_count(pages, capacity, prep) == scalar_hits(
        FifoCache(capacity), pages
    )
    assert lru_hit_count(pages, capacity, prep) == scalar_hits(
        LruCache(capacity), pages
    )


class TestReplayFast:
    def test_replay_trace_fast_matches_reference(self):
        rng = np.random.default_rng(6)
        pages = rng.integers(0, 50, size=700)
        traces = traces_from_pages(pages, timestamps=rng.random(700) * 60)
        for make in (lambda: FifoCache(16), lambda: LruCache(16),
                     lambda: FrozenCache(16, start_page=8)):
            slow_cache, fast_cache = make(), make()
            slow = replay_trace(slow_cache, traces)
            fast = replay_trace_fast(fast_cache, traces)
            assert fast == slow
            assert fast_cache.stats.hits == slow_cache.stats.hits
            assert fast_cache.stats.misses == slow_cache.stats.misses

    def test_unknown_cache_type_falls_back(self):
        class TaggedLru(LruCache):
            pass

        assert replay_pages_fast(TaggedLru(4), np.array([1, 2, 1])) is None
        # replay_trace_fast must still produce the right answer via the
        # scalar fallback.
        traces = traces_from_pages([1, 2, 1, 3, 1])
        cache = TaggedLru(2)
        ratio = replay_trace_fast(cache, traces)
        ref = replay_trace(LruCache(2), traces)
        assert ratio == ref

    def test_replay_many_shares_preparation(self):
        rng = np.random.default_rng(8)
        pages = rng.integers(0, 30, size=400)
        traces = traces_from_pages(pages)
        prepared = prepare_pages(pages_in_time_order(traces))
        caches = {
            "fifo": FifoCache(8),
            "lru": LruCache(8),
            "frozen": FrozenCache(8, start_page=4),
        }
        ratios = replay_many(caches, traces, prepared)
        for name, cache in caches.items():
            ref_cache = type(cache)(8, start_page=4) if name == "frozen" \
                else type(cache)(8)
            assert ratios[name] == replay_trace(ref_cache, traces)
            assert cache.stats.hits == ref_cache.stats.hits

    def test_replay_many_counts_fast_replays_and_reuse(self):
        traces = traces_from_pages(np.random.default_rng(9).integers(0, 30, 400))
        prepared = prepare_pages(pages_in_time_order(traces))
        caches = {"fifo": FifoCache(8), "lru": LruCache(8),
                  "frozen": FrozenCache(8, start_page=4)}
        with telemetry_session() as telemetry:
            replay_many(caches, traces, prepared)
        counters = {
            (c["name"], c["labels"].get("policy")): c["value"]
            for c in telemetry.registry.snapshot()["counters"]
        }
        assert counters[("cache.prepared.reuse", None)] == 1
        for policy in ("fifo", "lru", "frozen"):
            assert counters[("cache.replay.fast", policy)] == 1

    def test_replay_many_empty_trace(self):
        traces = traces_from_pages([]).where(np.zeros(0, dtype=bool))
        ratios = replay_many({"fifo": FifoCache(4)}, traces)
        assert ratios == {"fifo": 0.0}


class TestSimulateFastSlowParity:
    def test_simulate_vd_cache_fast_equals_slow(self):
        traces = traces_with_hotspot(n_hot=80, n_cold=60)
        fast = simulate_vd_cache(traces, 0, MiB, 100 * MiB)
        vd_traces = traces.for_vd(0)
        block = hottest_block(traces, 0, MiB, 100 * MiB)
        capacity_pages = MiB // PAGE_BYTES
        slow = {
            "fifo": replay_trace(FifoCache(capacity_pages), vd_traces),
            "lru": replay_trace(LruCache(capacity_pages), vd_traces),
            "frozen": replay_trace(
                FrozenCache.for_byte_range(
                    block.start_byte, block.block_bytes, PAGE_BYTES
                ),
                vd_traces,
            ),
        }
        assert fast == slow

    def test_simulate_vd_caches_matches_single_size_calls(self):
        traces = traces_with_hotspot(n_hot=80, n_cold=60)
        sizes = (MiB, 4 * MiB)
        combined = simulate_vd_caches(traces, 0, sizes, 100 * MiB)
        for block_bytes in sizes:
            single = simulate_vd_cache(traces, 0, block_bytes, 100 * MiB)
            assert combined[block_bytes] == single

    def test_none_for_untraced_vd(self):
        traces = traces_with_hotspot()
        assert simulate_vd_caches(traces, 99, (MiB,), 100 * MiB) is None
