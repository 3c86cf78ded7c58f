"""Exact cache hit counts over one VD's page stream (Fig 7(a)).

One function per policy, each over a :class:`PreparedPages`:

- **frozen**: residency is a fixed page range, so the hit count is one
  range count over the full page stream;
- **FIFO** / **LRU**: if the distinct pages fit in the cache (an empty
  stream included) nothing is ever evicted, so every access after a
  page's first is a hit (accesses - distinct); otherwise one exact loop
  over the compressed stream.

Compression drops immediately repeated pages: after any access the page
is resident (a miss admits it), so a repeat is always a hit and — FIFO
ignores hits, LRU's move-to-MRU is a no-op for the MRU page — never
changes state.  The loops count misses on the compressed stream and
report ``accesses - misses``.

The scalar cache classes in ``tests/oracles/cache.py`` are the reference
these counts are pinned to (``tests/cache/test_fastreplay.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError

PAGE_BYTES = 4096


def pages_in_time_order(
    timestamps: np.ndarray,
    offsets: np.ndarray,
    page_bytes: int = PAGE_BYTES,
) -> np.ndarray:
    """The 4 KiB page id of each traced IO, sorted by timestamp (stable).

    ``timestamps`` and ``offsets`` are one VD's ``timestamp`` and
    ``offset_bytes`` columns, row for row.
    """
    if timestamps.size > 1 and not np.all(timestamps[:-1] <= timestamps[1:]):
        order = np.argsort(timestamps, kind="stable")
        return offsets[order] // page_bytes
    return offsets // page_bytes


@dataclass
class PreparedPages:
    """One page stream, prepared once for every policy and capacity.

    ``dense`` is the stream with immediate repeats dropped and pages
    relabelled ``0..distinct-1``, so the loops keep flat per-page state.
    """

    pages: np.ndarray          #: full page stream in time order
    dense: np.ndarray          #: compressed stream with dense 0-based ids
    distinct: int              #: number of distinct pages

    @property
    def accesses(self) -> int:
        return int(self.pages.size)


def prepare_pages(pages: np.ndarray) -> PreparedPages:
    """Compress one page stream, assign dense ids and count distinct pages."""
    pages = np.asarray(pages)
    if pages.size == 0:
        return PreparedPages(pages, np.zeros(0, dtype=np.int64), 0)
    keep = np.empty(pages.size, dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    uniq, dense = np.unique(pages[keep], return_inverse=True)
    return PreparedPages(pages, dense, int(uniq.size))


def _check_capacity(capacity_pages: int) -> None:
    if capacity_pages < 1:
        raise ConfigError("capacity must be at least one page")


def frozen_hit_count(
    prep: PreparedPages, start_page: int, capacity_pages: int
) -> int:
    """Hits of a frozen cache over ``[start_page, start_page + capacity)``."""
    _check_capacity(capacity_pages)
    pages = prep.pages
    return int(
        ((pages >= start_page) & (pages < start_page + capacity_pages)).sum()
    )


def fifo_hit_count(prep: PreparedPages, capacity_pages: int) -> int:
    """Exact FIFO hit count (admission-order eviction, hits don't promote).

    A page admitted as the a-th admission is evicted by the
    (a + capacity)-th; it is resident iff (admissions so far) - a <=
    capacity.
    """
    _check_capacity(capacity_pages)
    if prep.distinct <= capacity_pages:
        return prep.accesses - prep.distinct
    admission_of = [-1] * prep.distinct
    admissions = 0
    misses = 0
    cap = capacity_pages
    for page in prep.dense.tolist():
        a = admission_of[page]
        if a < 0 or admissions - a > cap:
            admission_of[page] = admissions
            admissions += 1
            misses += 1
    return prep.accesses - misses


def lru_hit_count(prep: PreparedPages, capacity_pages: int) -> int:
    """Exact LRU hit count (recency eviction, hits promote to MRU)."""
    _check_capacity(capacity_pages)
    if prep.distinct <= capacity_pages:
        return prep.accesses - prep.distinct
    resident: "OrderedDict[int, None]" = OrderedDict()
    promote = resident.move_to_end
    evict = resident.popitem
    misses = 0
    cap = capacity_pages
    for page in prep.dense.tolist():
        if page in resident:
            promote(page)
        else:
            misses += 1
            if len(resident) >= cap:
                evict(last=False)
            resident[page] = None
    return prep.accesses - misses
