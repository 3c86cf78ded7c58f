"""Access-by-access page caches, kept as a test oracle.

:class:`FifoCache`, :class:`LruCache` and :class:`FrozenCache` apply one
page access at a time through :meth:`Cache.access`, and
:func:`replay_trace` feeds them a VD's trace in time order.  They are easy
to audit and slow; the per-policy hit counts in
:mod:`repro.cache.fastreplay` must match them exactly
(``tests/cache/test_fastreplay.py``).

Caches operate on 4 KiB pages.  Both reads and writes are accesses: the
EBS caches under study are persistent write-back caches, so a write to a
cached page is a hit that avoids the remote round-trip like a read.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cache.fastreplay import PAGE_BYTES
from repro.trace.dataset import TraceDataset
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


class FifoCache(Cache):
    """Evicts the page that was *admitted* earliest; hits do not promote."""

    def __init__(self, capacity_pages: int):
        super().__init__(capacity_pages)
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def _lookup_and_admit(self, page: int) -> bool:
        if page in self._pages:
            return True
        if len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return False

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._pages)


class LruCache(Cache):
    """Evicts the least recently *accessed* page; hits promote to MRU."""

    def __init__(self, capacity_pages: int):
        super().__init__(capacity_pages)
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def _lookup_and_admit(self, page: int) -> bool:
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        if len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return False

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._pages)


class FrozenCache(Cache):
    """Caches exactly the pages in ``[start_page, start_page + capacity)``."""

    def __init__(self, capacity_pages: int, start_page: int):
        super().__init__(capacity_pages)
        if start_page < 0:
            raise ConfigError(f"start_page must be non-negative, got {start_page}")
        self.start_page = start_page

    @classmethod
    def for_byte_range(
        cls, start_byte: int, length_bytes: int, page_bytes: int = PAGE_BYTES
    ) -> "FrozenCache":
        """Freeze the pages covering a byte range (e.g. the hottest block)."""
        if page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")
        if length_bytes <= 0:
            raise ConfigError("length_bytes must be positive")
        start_page = start_byte // page_bytes
        end_page = -(-(start_byte + length_bytes) // page_bytes)
        return cls(capacity_pages=end_page - start_page, start_page=start_page)

    def _lookup_and_admit(self, page: int) -> bool:
        # No admission: residency is fixed at construction.
        return page in self

    def __contains__(self, page: int) -> bool:
        return self.start_page <= page < self.start_page + self.capacity_pages

    def __len__(self) -> int:
        return self.capacity_pages


def replay_trace(cache: Cache, traces: TraceDataset) -> float:
    """Feed every traced IO through ``cache`` in time order; returns hit ratio.

    Multi-page IOs touch only their first page, as in
    :mod:`repro.cache.simulate`.
    """
    if len(traces) == 0:
        return 0.0
    order = np.argsort(traces.timestamp, kind="stable")
    offsets = traces.offset_bytes[order]
    writes = traces.op[order].astype(bool)
    pages = offsets // PAGE_BYTES
    for page, is_write in zip(pages, writes):
        cache.access(int(page), bool(is_write))
    return cache.stats.hit_ratio
