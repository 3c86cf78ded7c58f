"""Least-Recently-Used page cache."""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import Cache


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
