"""First-In-First-Out page cache."""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import Cache


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
