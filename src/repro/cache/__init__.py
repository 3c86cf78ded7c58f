"""Caching across the EBS stack (§7).

- :mod:`repro.cache.hotspot` — hottest-block analysis over the trace data
  (access rate, LBA share, write dominance, hot rate — Fig 6);
- :mod:`repro.cache.simulate` — trace-driven cache simulation and hit
  ratios of FIFO, LRU and the FrozenHot-style frozen cache (pin the
  hottest LBA block, never evict) — Fig 7(a);
- :mod:`repro.cache.fastreplay` — one exact hit count per policy over a
  prepared page stream (the scalar cache classes it is pinned to live in
  ``tests/oracles/cache.py``);
- :mod:`repro.cache.placement` — CN-cache vs BS-cache comparison:
  latency gain and cache-space utilization (Fig 7(b)-(d)).
"""

from repro.cache.fastreplay import (
    PreparedPages,
    fifo_hit_count,
    frozen_hit_count,
    lru_hit_count,
    prepare_pages,
)
from repro.cache.hotspot import (
    HottestBlock,
    hot_rate,
    hottest_block,
    hottest_block_wr_ratio,
)
from repro.cache.hybrid import HybridCacheConfig, latency_gain_hybrid
from repro.cache.prefetch import (
    PrefetchConfig,
    PrefetchStats,
    SequentialPrefetcher,
)
from repro.cache.placement import (
    CachePlacementConfig,
    cacheable_vd_counts,
    latency_gain,
)
from repro.cache.simulate import simulate_vd_caches

__all__ = [
    "HottestBlock",
    "hot_rate",
    "hottest_block",
    "hottest_block_wr_ratio",
    "HybridCacheConfig",
    "latency_gain_hybrid",
    "PrefetchConfig",
    "PrefetchStats",
    "SequentialPrefetcher",
    "CachePlacementConfig",
    "cacheable_vd_counts",
    "latency_gain",
    "simulate_vd_caches",
    "PreparedPages",
    "fifo_hit_count",
    "frozen_hit_count",
    "lru_hit_count",
    "prepare_pages",
]
