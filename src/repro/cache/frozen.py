"""The frozen cache (FrozenHot-style, §7.3.1).

A frozen cache pins a fixed page set — here the VD's hottest LBA block —
and never evicts.  This removes all cache-management overhead (no metadata
updates, no eviction) at the cost of zero adaptivity: accesses outside the
frozen range always miss.  The paper finds it competitive with LRU only
once the frozen region is large (≈2 GiB), which suits persistent
flash/PMEM caches.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import Cache
from repro.util.errors import ConfigError


class FrozenCache(Cache):
    """Caches exactly the pages in ``[start_page, start_page + capacity)``."""

    def __init__(self, capacity_pages: int, start_page: int):
        super().__init__(capacity_pages)
        if start_page < 0:
            raise ConfigError(f"start_page must be non-negative, got {start_page}")
        self.start_page = start_page

    @classmethod
    def for_byte_range(
        cls, start_byte: int, length_bytes: int, page_bytes: int = 4096
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

    def contains_pages(self, pages: np.ndarray) -> np.ndarray:
        """Vectorized residency check: bool array, one entry per page id."""
        pages = np.asarray(pages)
        return (pages >= self.start_page) & (
            pages < self.start_page + self.capacity_pages
        )

    def __len__(self) -> int:
        return self.capacity_pages
