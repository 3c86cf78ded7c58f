"""Page-cache interface and bookkeeping.

Caches operate on 4 KiB pages (the paper's cache page size); callers map
byte offsets to page ids.  Both reads and writes are "accesses": the EBS
caches under study are persistent write-back caches, so a write to a cached
page is a hit that avoids the remote round-trip just like a read.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from repro.util.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss counters with derived ratios."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses; 0.0 before any access."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class Cache(abc.ABC):
    """A fixed-capacity page cache."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ConfigError(
                f"capacity must be at least one page, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self.stats = CacheStats()

    @abc.abstractmethod
    def _lookup_and_admit(self, page: int) -> bool:
        """Return True on hit; on miss, admit per the policy."""

    def access(self, page: int, is_write: bool = False) -> bool:
        """Access one page; returns True on a hit and updates stats."""
        if page < 0:
            raise ConfigError(f"page ids are non-negative, got {page}")
        hit = self._lookup_and_admit(page)
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit

    @abc.abstractmethod
    def __contains__(self, page: int) -> bool:
        """Whether the page is currently resident (no stats update)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of resident pages."""

    def check_invariants(self) -> None:
        """Raise if the cache exceeds capacity."""
        if len(self) > self.capacity_pages:
            raise ConfigError(
                f"cache holds {len(self)} pages, capacity {self.capacity_pages}"
            )
