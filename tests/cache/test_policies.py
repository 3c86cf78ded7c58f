"""Tests for the FIFO, LRU, and frozen oracle caches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import ConfigError

from tests.oracles.cache import FifoCache, FrozenCache, LruCache

access_sequences = st.lists(st.integers(0, 30), min_size=1, max_size=300)


class TestFifo:
    def test_hit_after_admit(self):
        cache = FifoCache(4)
        assert cache.access(1) is False
        assert cache.access(1) is True

    def test_evicts_oldest(self):
        cache = FifoCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(3)  # evicts 1
        assert 1 not in cache
        assert 2 in cache
        assert 3 in cache

    def test_hits_do_not_refresh_order(self):
        cache = FifoCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # hit; 1 remains oldest
        cache.access(3)  # evicts 1, not 2
        assert 1 not in cache
        assert 2 in cache

    def test_never_exceeds_capacity(self):
        cache = FifoCache(3)
        for page in range(100):
            cache.access(page)
            cache.check_invariants()
        assert len(cache) == 3

    @settings(max_examples=50)
    @given(access_sequences)
    def test_stats_consistent(self, pages):
        cache = FifoCache(8)
        for page in pages:
            cache.access(page)
        assert cache.stats.accesses == len(pages)
        assert 0.0 <= cache.stats.hit_ratio <= 1.0
        cache.check_invariants()


class TestLru:
    def test_hits_promote(self):
        cache = LruCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # promotes 1
        cache.access(3)  # evicts 2
        assert 1 in cache
        assert 2 not in cache

    def test_never_exceeds_capacity(self):
        cache = LruCache(5)
        for page in range(200):
            cache.access(page % 17)
        cache.check_invariants()

    @settings(max_examples=50)
    @given(access_sequences)
    def test_lru_at_least_as_good_on_reuse_heavy(self, pages):
        # LRU's inclusion property vs FIFO doesn't universally hold, but
        # both must report identical totals and valid ratios.
        fifo, lru = FifoCache(8), LruCache(8)
        for page in pages:
            fifo.access(page)
            lru.access(page)
        assert fifo.stats.accesses == lru.stats.accesses

    @settings(max_examples=30)
    @given(access_sequences)
    def test_infinite_capacity_identical(self, pages):
        # With capacity above the universe size, FIFO == LRU exactly.
        fifo, lru = FifoCache(1000), LruCache(1000)
        hits_f = [fifo.access(p) for p in pages]
        hits_l = [lru.access(p) for p in pages]
        assert hits_f == hits_l


class TestFrozen:
    def test_fixed_residency(self):
        cache = FrozenCache(capacity_pages=4, start_page=10)
        assert cache.access(10) is True
        assert cache.access(13) is True
        assert cache.access(14) is False
        assert cache.access(9) is False
        # A miss never admits: still a miss on repeat.
        assert cache.access(14) is False

    def test_for_byte_range(self):
        cache = FrozenCache.for_byte_range(8192, 8192, page_bytes=4096)
        assert cache.start_page == 2
        assert cache.capacity_pages == 2
        assert 2 in cache and 3 in cache and 4 not in cache

    def test_for_byte_range_partial_pages(self):
        cache = FrozenCache.for_byte_range(100, 5000, page_bytes=4096)
        # Covers pages 0 and 1 (range 100..5100 touches both).
        assert cache.start_page == 0
        assert cache.capacity_pages == 2

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            FrozenCache(0, 0)
        with pytest.raises(ConfigError):
            FrozenCache(1, -1)
        with pytest.raises(ConfigError):
            FrozenCache.for_byte_range(0, 0)

    @settings(max_examples=50)
    @given(access_sequences)
    def test_hit_iff_in_range(self, pages):
        cache = FrozenCache(capacity_pages=10, start_page=5)
        for page in pages:
            expected = 5 <= page < 15
            assert cache.access(page) is expected


class TestStats:
    def test_reset(self):
        cache = FifoCache(2)
        cache.access(1)
        cache.access(1)
        cache.stats.reset()
        assert cache.stats.accesses == 0
        assert cache.stats.hit_ratio == 0.0

    def test_negative_page_rejected(self):
        with pytest.raises(ConfigError):
            FifoCache(2).access(-1)
