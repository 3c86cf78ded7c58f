"""Pins the per-policy hit counts to the scalar oracle.

Every count in :mod:`repro.cache.fastreplay` must equal feeding the same
page stream through the oracle caches of ``tests/oracles/cache.py`` one
access at a time — across policies, capacities (eviction-forcing ones
included, down to one page), access patterns, and a whole simulated data
center at dense trace sampling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fastreplay import (
    PAGE_BYTES,
    fifo_hit_count,
    frozen_hit_count,
    lru_hit_count,
    pages_in_time_order,
    prepare_pages,
)
from repro.cache.hotspot import hottest_block
from repro.cache.simulate import simulate_vd_caches
from repro.cluster import EBSSimulator, SimulationConfig
from repro.obs.runtime import telemetry_session
from repro.trace.dataset import TraceDataset
from repro.util import ConfigError
from repro.util.rng import RngFactory
from repro.util.units import MiB
from repro.workload import FleetConfig, build_fleet

from tests.cache.test_hotspot import traces_with_hotspot
from tests.oracles.cache import FifoCache, FrozenCache, LruCache, replay_trace


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
        # The immediate 5,5 repeat is dropped; ids are page ranks.
        np.testing.assert_array_equal(prep.dense, [0, 1, 0, 2, 1])
        assert prep.distinct == 3
        assert prep.accesses == 6

    def test_empty(self):
        prep = prepare_pages(np.zeros(0, dtype=np.int64))
        assert prep.accesses == 0
        assert prep.distinct == 0
        assert prep.dense.size == 0
        assert fifo_hit_count(prep, 1) == lru_hit_count(prep, 1) == 0
        assert frozen_hit_count(prep, 0, 1) == 0

    def test_all_duplicates_compress_to_one(self):
        prep = prepare_pages(np.full(50, 3))
        assert prep.dense.size == 1
        assert prep.distinct == 1
        assert prep.accesses == 50


class TestPagesInTimeOrder:
    def test_sorts_by_timestamp(self):
        traces = traces_from_pages([1, 2, 3], timestamps=[3.0, 1.0, 2.0])
        pages = pages_in_time_order(traces.timestamp, traces.offset_bytes)
        np.testing.assert_array_equal(pages, [2, 3, 1])

    def test_already_sorted_passthrough(self):
        traces = traces_from_pages([4, 5, 6])
        pages = pages_in_time_order(traces.timestamp, traces.offset_bytes)
        np.testing.assert_array_equal(pages, [4, 5, 6])


class TestFrozenFast:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 40, size=500)
        prep = prepare_pages(pages)
        for start, cap in [(0, 10), (5, 3), (39, 1), (100, 4)]:
            fast = frozen_hit_count(prep, start, cap)
            ref = scalar_hits(FrozenCache(cap, start_page=start), pages)
            assert fast == ref

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            frozen_hit_count(prepare_pages(np.array([1])), 0, 0)


class TestFifoEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_matches_scalar_across_capacities(self, kind):
        rng = np.random.default_rng(kind)
        for universe in (3, 17, 60):
            pages = _patterned_stream(rng, kind, 800, universe)
            prep = prepare_pages(pages)
            for cap in (1, 2, universe // 2 + 1, universe, universe + 7):
                fast = fifo_hit_count(prep, cap)
                ref = scalar_hits(FifoCache(cap), pages)
                assert fast == ref, (kind, universe, cap)

    def test_no_eviction_boundary(self):
        # distinct == capacity: the shortcut applies; == capacity + 1: it
        # must not.
        prep = prepare_pages(np.tile(np.arange(8), 5))
        pages = prep.pages
        assert fifo_hit_count(prep, 8) == scalar_hits(FifoCache(8), pages)
        assert fifo_hit_count(prep, 7) == scalar_hits(FifoCache(7), pages)

    def test_churn_heavy_stream_still_exact(self):
        # distinct far above capacity: most re-accesses miss.
        rng = np.random.default_rng(4)
        pages = rng.integers(0, 4000, size=9000)
        cap = 300
        assert fifo_hit_count(prepare_pages(pages), cap) == scalar_hits(
            FifoCache(cap), pages
        )

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            fifo_hit_count(prepare_pages(np.array([1])), 0)


class TestLruEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_matches_scalar_across_capacities(self, kind):
        rng = np.random.default_rng(10 + kind)
        for universe in (3, 17, 60):
            pages = _patterned_stream(rng, kind, 800, universe)
            prep = prepare_pages(pages)
            for cap in (1, 2, universe // 2 + 1, universe, universe + 7):
                fast = lru_hit_count(prep, cap)
                ref = scalar_hits(LruCache(cap), pages)
                assert fast == ref, (kind, universe, cap)

    def test_suspect_with_duplicate_heavy_window_hits(self):
        # The re-access comes long after the first (gap well above the
        # capacity) but the window between holds only two distinct
        # pages: reuse distance 2 <= capacity, so it must hit.
        cap = 4
        window = [7, 8] * (3 * cap)
        pages = np.array([42] + window + [42])
        fast = lru_hit_count(prepare_pages(pages), cap)
        ref = scalar_hits(LruCache(cap), pages)
        assert fast == ref == len(pages) - 3

    def test_sure_miss_prefilter_window(self):
        # The window between two accesses is ``capacity`` new pages: the
        # first page is evicted and the re-access misses.
        cap = 4
        pages = np.concatenate([[99], np.arange(cap), [99]])
        fast = lru_hit_count(prepare_pages(pages), cap)
        ref = scalar_hits(LruCache(cap), pages)
        assert fast == ref == 0

    def test_large_stream_with_suspects_matches_loop(self):
        # A long skewed stream with a working set above both capacities.
        rng = np.random.default_rng(5)
        pages = np.minimum(rng.zipf(1.2, size=30000) - 1, 5000)
        prep = prepare_pages(pages)
        for cap in (512, 2048):
            assert prep.distinct > cap
            fast = lru_hit_count(prep, cap)
            assert fast == scalar_hits(LruCache(cap), pages)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            lru_hit_count(prepare_pages(np.array([1])), 0)


@st.composite
def evicting_streams(draw):
    """``(pages, capacity)`` with more distinct pages than the capacity."""
    capacity = draw(st.just(1) | st.integers(1, 10))
    universe = draw(st.integers(capacity + 1, capacity + 12))
    repeats = draw(st.lists(st.integers(0, universe - 1), max_size=120))
    pages = draw(st.permutations(list(range(universe)) + repeats))
    return pages, capacity


any_streams = st.tuples(
    st.lists(st.integers(0, 12), min_size=1, max_size=120),
    st.integers(1, 15),
)


@settings(max_examples=140, deadline=None)
@given(stream=any_streams | evicting_streams())
def test_property_fast_equals_scalar(stream):
    pages, capacity = stream
    pages = np.asarray(pages, dtype=np.int64)
    prep = prepare_pages(pages)
    assert fifo_hit_count(prep, capacity) == scalar_hits(
        FifoCache(capacity), pages
    )
    assert lru_hit_count(prep, capacity) == scalar_hits(
        LruCache(capacity), pages
    )


class TestReplayFast:
    def test_replay_trace_fast_matches_reference(self):
        # Out-of-order timestamps: the counts follow the time order.
        rng = np.random.default_rng(6)
        pages = rng.integers(0, 50, size=700)
        traces = traces_from_pages(pages, timestamps=rng.random(700) * 60)
        prep = prepare_pages(
            pages_in_time_order(traces.timestamp, traces.offset_bytes)
        )
        fifo, lru = FifoCache(16), LruCache(16)
        frozen = FrozenCache(16, start_page=8)
        replay_trace(fifo, traces)
        replay_trace(lru, traces)
        replay_trace(frozen, traces)
        assert fifo_hit_count(prep, 16) == fifo.stats.hits
        assert lru_hit_count(prep, 16) == lru.stats.hits
        assert frozen_hit_count(prep, 8, 16) == frozen.stats.hits
        assert prep.accesses == fifo.stats.accesses


class TestSimulateFastSlowParity:
    def test_simulate_vd_cache_fast_equals_slow(self):
        traces = traces_with_hotspot(n_hot=80, n_cold=60)
        fast = simulate_vd_caches(traces, 0, (MiB,), 100 * MiB)[MiB]
        assert fast == oracle_ratios(traces, 0, MiB, 100 * MiB)

    def test_simulate_vd_caches_matches_single_size_calls(self):
        traces = traces_with_hotspot(n_hot=80, n_cold=60)
        sizes = (MiB, 4 * MiB)
        combined = simulate_vd_caches(traces, 0, sizes, 100 * MiB)
        for block_bytes in sizes:
            single = simulate_vd_caches(traces, 0, (block_bytes,), 100 * MiB)
            assert combined[block_bytes] == single[block_bytes]

    def test_none_for_untraced_vd(self):
        traces = traces_with_hotspot()
        assert simulate_vd_caches(traces, 99, (MiB,), 100 * MiB) is None

    def test_counts_replayed_pages_per_policy(self):
        traces = traces_with_hotspot(n_hot=80, n_cold=60)
        with telemetry_session() as telemetry:
            simulate_vd_caches(traces, 0, (MiB, 4 * MiB), 100 * MiB)
        counters = {
            (c["name"], c["labels"].get("policy")): c["value"]
            for c in telemetry.registry.snapshot()["counters"]
        }
        for policy in ("fifo", "lru", "frozen"):
            assert counters[("cache.replay.pages", policy)] == 2 * 140


def oracle_ratios(traces, vd_id, block_bytes, capacity_bytes):
    """``simulate_vd_caches``'s per-policy ratios, by the oracle caches."""
    vd_traces = traces.for_vd(vd_id)
    block = hottest_block(traces, vd_id, block_bytes, capacity_bytes)
    capacity_pages = max(1, block_bytes // PAGE_BYTES)
    return {
        "fifo": replay_trace(FifoCache(capacity_pages), vd_traces),
        "lru": replay_trace(LruCache(capacity_pages), vd_traces),
        "frozen": replay_trace(
            FrozenCache.for_byte_range(
                block.start_byte, block.block_bytes, PAGE_BYTES
            ),
            vd_traces,
        ),
    }


class TestDenseSamplingRun:
    """A whole simulated DC at 1/20 trace sampling, as in
    ``examples/cache_placement.py``: busy VDs there overflow small caches,
    so the FIFO and LRU loops do real work on simulator output."""

    BLOCKS = (MiB, 64 * MiB)

    @pytest.fixture(scope="class")
    def run(self):
        rngs = RngFactory(42)
        fleet = build_fleet(
            FleetConfig(
                num_users=10,
                num_vms=40,
                num_compute_nodes=10,
                num_storage_nodes=6,
            ),
            rngs,
        )
        config = SimulationConfig(
            duration_seconds=60, trace_sampling_rate=1 / 20
        )
        return EBSSimulator(fleet, config, rngs).run()

    def test_simulate_equals_oracle_for_every_vd(self, run):
        traces = run.traces
        evicted = {"fifo": 0, "lru": 0}
        for vd_id in np.unique(traces.vd_id).tolist():
            capacity_bytes = run.fleet.vds[vd_id].capacity_bytes
            out = simulate_vd_caches(traces, vd_id, self.BLOCKS, capacity_bytes)
            vd = traces.for_vd(vd_id)
            prep = prepare_pages(
                pages_in_time_order(vd.timestamp, vd.offset_bytes)
            )
            for block_bytes in self.BLOCKS:
                ref = oracle_ratios(traces, vd_id, block_bytes, capacity_bytes)
                assert out[block_bytes] == ref, (vd_id, block_bytes)
                # A re-access missed: the cache evicted a page.
                no_eviction = (prep.accesses - prep.distinct) / prep.accesses
                for policy in evicted:
                    evicted[policy] += ref[policy] < no_eviction
        assert evicted["fifo"] >= 1
        assert evicted["lru"] >= 1
