"""Array-based cache-replay fast paths (exact, policy-equivalent).

``repro.cache.simulate.replay_trace`` feeds IOs one at a time through
:meth:`Cache.access` — the audited reference path, but far too slow for
fleet-scale replay.  This module replays the same page stream with the
same semantics at array speed:

- **FrozenCache** residency is a fixed range, so the whole replay is one
  vectorized range check (see :meth:`FrozenCache.contains_pages`).
- **FIFO / LRU** exploit exact reductions before touching a Python loop:

  1. *Consecutive-duplicate compression*: after any access the touched
     page is resident (a miss admits it), so an immediately repeated
     access is always a hit and — since FIFO ignores hits and LRU's
     move-to-MRU is a no-op for the already-MRU page — never changes
     state.  Duplicates are counted as hits and dropped.
  2. *No-eviction shortcut*: if the number of distinct pages does not
     exceed the capacity, no eviction ever happens under either policy,
     so misses == distinct pages and hits == accesses - distinct.
  3. *Last-access-index trick (LRU only)*: LRU is a stack algorithm — an
     access hits iff the page's reuse (stack) distance is at most the
     capacity.  On the compressed stream the *gap* since a page's
     previous access upper-bounds that distance, so every access with
     ``gap <= capacity`` is a guaranteed hit with no state needed.  Only
     the few "suspects" with larger gaps need their exact stack distance,
     computed with a block-decomposition counting pass (see
     :func:`_lru_suspect_distances`).

Work shared between policies (time sort, page extraction, compression,
previous-occurrence indices) is factored into :class:`PreparedPages` so
one trace replayed through several caches pays for it once (see
:func:`replay_many`).

All fast paths produce hit/miss counts **identical** to the scalar
reference; the equivalence is pinned by tests/cache/test_fastreplay.py.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional
from weakref import WeakKeyDictionary

import numpy as np

from repro.cache.base import Cache
from repro.cache.fifo import FifoCache
from repro.cache.frozen import FrozenCache
from repro.cache.lru import LruCache
from repro.obs.runtime import get_telemetry
from repro.trace.dataset import TraceDataset
from repro.util.errors import ConfigError

PAGE_BYTES = 4096

#: Block size of the LRU suspect-counting decomposition.
_LRU_BLOCK = 2048
#: If more than this fraction of the compressed stream are suspects the
#: counting pass stops paying off; fall back to the OrderedDict loop.
_LRU_SUSPECT_FRACTION = 0.25


def pages_in_time_order(
    traces: TraceDataset, page_bytes: int = PAGE_BYTES
) -> np.ndarray:
    """The 4 KiB page id of each traced IO, sorted by timestamp (stable)."""
    ts = traces.timestamp
    if ts.size > 1 and not np.all(ts[:-1] <= ts[1:]):
        order = np.argsort(ts, kind="stable")
        return traces.offset_bytes[order] // page_bytes
    return traces.offset_bytes // page_bytes


def _compress_consecutive(pages: np.ndarray) -> "tuple[np.ndarray, int]":
    """Drop immediately-repeated pages; returns (stream, guaranteed hits)."""
    if pages.size == 0:
        return pages, 0
    keep = np.empty(pages.size, dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    kept = int(keep.sum())
    if kept == pages.size:
        return pages, 0
    return pages[keep], pages.size - kept


@dataclass
class PreparedPages:
    """Shared per-trace precomputation for the FIFO/LRU fast paths.

    ``stream`` is the consecutive-duplicate-compressed page stream,
    ``dense`` the same stream relabelled to ``0..distinct-1`` (dense ids
    make the FIFO loop's bookkeeping a flat list instead of a dict), and
    ``prev`` maps each stream position to the previous position touching
    the same page (-1 for a first occurrence).  Everything derives from
    one stable argsort of the stream, so a trace replayed through many
    policies or capacities pays for the sort once.
    """

    pages: np.ndarray          #: full page stream in time order
    stream: np.ndarray         #: compressed stream (original page ids)
    dup_hits: int              #: accesses dropped by compression (hits)
    distinct: int              #: number of distinct pages
    dense: np.ndarray          #: compressed stream with dense 0-based ids
    prev: np.ndarray           #: previous same-page position (-1 if first)
    order: np.ndarray          #: stable grouping permutation (by page)

    @property
    def accesses(self) -> int:
        return int(self.pages.size)


def prepare_pages(pages: np.ndarray) -> PreparedPages:
    """Compress and index one page stream for repeated fast replays.

    One stable argsort groups equal pages while preserving time order
    within each group; from the grouped view the distinct count, dense
    relabelling, and previous-occurrence indices all fall out with O(n)
    scatter passes.
    """
    pages = np.asarray(pages)
    stream, dup_hits = _compress_consecutive(pages)
    m = int(stream.size)
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return PreparedPages(pages, stream, dup_hits, 0, empty, empty, empty)
    order = np.argsort(stream, kind="stable")
    grouped = stream[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    distinct = int(first.sum())
    # Previous same-page position: within a group (time-ordered, thanks to
    # the stable sort) each position's predecessor is the one before it.
    prev_sorted = np.empty(m, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = np.where(first[1:], -1, order[:-1])
    prev = np.empty(m, dtype=np.int64)
    prev[order] = prev_sorted
    # Dense ids: rank of each page's group, scattered back to stream order.
    dense_sorted = np.cumsum(first, dtype=np.int64) - 1
    dense = np.empty(m, dtype=np.int64)
    dense[order] = dense_sorted
    return PreparedPages(
        pages, stream, dup_hits, distinct, dense, prev, order
    )


def frozen_hit_count(
    pages: np.ndarray, start_page: int, capacity_pages: int
) -> int:
    """Hits of a frozen cache over ``[start_page, start_page + capacity)``."""
    if capacity_pages < 1:
        raise ConfigError("capacity must be at least one page")
    pages = np.asarray(pages)
    return int(
        ((pages >= start_page) & (pages < start_page + capacity_pages)).sum()
    )


def _fifo_hits_loop(prep: PreparedPages, capacity_pages: int) -> int:
    """FIFO admission-counter loop over the compressed dense stream.

    A page admitted as the a-th admission is evicted by the (a + C)-th;
    it is resident iff (admissions so far) - a <= C.
    """
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


#: Give up on one chunk's FIFO fixpoint iteration after this many rounds.
_FIFO_MAX_ROUNDS = 64
#: Chunk length in eviction generations (multiples of the capacity).
_FIFO_CHUNK_GENERATIONS = 4
#: The first chunk doubles as a convergence probe: if it alone needs more
#: than this many rounds, the stream is churn-heavy and the scalar loop
#: will be cheaper than iterating the remaining chunks.
_FIFO_PROBE_ROUNDS = 6
#: Streams whose distinct-page count exceeds this multiple of the capacity
#: churn through too many eviction generations for the fixpoint to pay off.
_FIFO_CHURN_FACTOR = 2


def _fifo_hits_fixpoint(
    prep: PreparedPages, capacity_pages: int
) -> "int | None":
    """Vectorized FIFO via chunked fixpoint iteration on the miss vector.

    Unlike LRU, FIFO is not a stack algorithm: whether access ``i`` hits
    depends on *which* earlier accesses missed (misses admit, hits do
    not).  But the miss vector satisfies a self-consistency relation:
    with admission numbers assigned in miss order, access ``i`` hits iff
    the page's latest admission ``a`` exists and at most ``capacity``
    admissions happened since (``admissions_before_i - a <= capacity``) —
    the page has not been pushed out yet.  Iterating the relation from
    the all-miss vector converges to the unique fixpoint (the actual
    replay; any two fixpoints agree by induction on their earliest
    disagreement), but information propagates only about one eviction
    generation (``capacity`` misses) per round, so a long stream over a
    small cache needs thousands of rounds.  Processing the stream in
    chunks of a few generations — carrying the exact per-page admission
    numbers and the admission counter between chunks, exactly like the
    scalar loop's state — keeps every local fixpoint a handful of rounds.

    Returns None (caller falls back to the exact loop) if any chunk
    fails to converge within ``_FIFO_MAX_ROUNDS`` rounds, or if the
    cumulative rounds across chunks blow a total budget — streams whose
    chunks routinely take many rounds are cheaper in the scalar loop,
    and the budget bounds the work wasted before discovering that.
    """
    m = int(prep.stream.size)
    dense = prep.dense
    cap = np.int64(capacity_pages)
    chunk_len = max(1024, _FIFO_CHUNK_GENERATIONS * capacity_pages)
    # The first chunk is shortened to a cheap probe: churn-heavy streams
    # are detected after a fraction of the stream instead of a full chunk.
    probe_len = min(chunk_len, max(1024, m // 4))
    num_chunks = 1 + max(0, (m - probe_len + chunk_len - 1) // chunk_len)
    rounds_budget = max(_FIFO_MAX_ROUNDS, 3 * num_chunks)
    rounds_used = 0
    #: admission number of each page's latest admission (-1: never).
    adm = np.full(prep.distinct, -1, dtype=np.int64)
    admissions = np.int64(0)   # total admissions before the current chunk
    misses_total = 0
    starts = [0] + list(range(probe_len, m, chunk_len))
    for s in starts:
        d = dense[s:s + chunk_len] if s else dense[:probe_len]
        n = int(d.size)
        # Group the chunk's accesses by page (stable: time order within
        # each group), for the per-page "latest earlier miss" cummax.
        order = np.argsort(d, kind="stable")
        g = d[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(g[1:], g[:-1], out=first[1:])
        # Segment-offset trick: group ranks scale a base large enough
        # that one global maximum.accumulate respects group boundaries.
        base = (np.cumsum(first, dtype=np.int64) - 1) * np.int64(n + 2)
        adm_entering = adm[d]      # latest admission from prior chunks
        shifted = np.empty(n, dtype=np.int64)
        j_in = np.empty(n, dtype=np.int64)
        miss = np.ones(n, dtype=bool)
        chunk_rounds = 0
        for _ in range(_FIFO_MAX_ROUNDS):
            # j_in(i): latest earlier in-chunk same-page miss (-1: none).
            cand = np.where(miss[order], order, np.int64(-1))
            shifted[0] = -1
            shifted[1:] = cand[:-1]
            shifted[first] = -1
            j_in[order] = np.maximum.accumulate(shifted + base) - base
            c = np.cumsum(miss, dtype=np.int64)   # inclusive miss count
            # Latest admission number of i's page: the in-chunk miss
            # j_in if any (admission number A0 + c[j_in] - 1), else the
            # admission carried in from previous chunks.
            has_in = j_in >= 0
            adm_latest = np.where(
                has_in,
                admissions + c[np.maximum(j_in, 0)] - 1,
                adm_entering,
            )
            before = admissions + c - miss       # admissions before i
            hit = (adm_latest >= 0) & (before - adm_latest <= cap)
            rounds_used += 1
            chunk_rounds += 1
            new_miss = ~hit
            if np.array_equal(new_miss, miss):
                break
            miss = new_miss
        else:
            return None
        if s == 0 and chunk_rounds > _FIFO_PROBE_ROUNDS:
            return None
        if rounds_used > rounds_budget:
            return None
        # Carry the state forward: per page touched in this chunk, its
        # latest in-chunk miss (if any) sets the new admission number.
        c = np.cumsum(miss, dtype=np.int64)
        cand = np.where(miss[order], order, np.int64(-1))
        latest_sorted = np.maximum.accumulate(cand + base) - base
        ends = np.empty(int(first.sum()), dtype=np.int64)
        ends[:-1] = np.nonzero(first)[0][1:] - 1
        ends[-1] = n - 1
        latest = latest_sorted[ends]
        touched = g[ends]
        updated = latest >= 0
        adm[touched[updated]] = (
            admissions + c[latest[updated]] - 1
        )
        chunk_misses = int(c[-1])
        admissions += chunk_misses
        misses_total += chunk_misses
    return prep.accesses - misses_total


def fifo_hit_count(
    pages: np.ndarray,
    capacity_pages: int,
    prepared: Optional[PreparedPages] = None,
) -> int:
    """Exact FIFO hit count (admission-order eviction, hits don't promote)."""
    if capacity_pages < 1:
        raise ConfigError("capacity must be at least one page")
    prep = prepared if prepared is not None else prepare_pages(pages)
    if prep.accesses == 0:
        return 0
    if prep.distinct <= capacity_pages:
        return prep.accesses - prep.distinct
    if (
        capacity_pages < 256
        or prep.distinct > _FIFO_CHURN_FACTOR * capacity_pages
    ):
        # Tiny caches and churn-heavy streams (working set far above the
        # capacity) cycle through many eviction generations; the fixpoint
        # would burn its round budget before falling back.
        return _fifo_hits_loop(prep, capacity_pages)
    hits = _fifo_hits_fixpoint(prep, capacity_pages)
    if hits is None:
        return _fifo_hits_loop(prep, capacity_pages)
    return hits


def _lru_hits_loop(prep: PreparedPages, capacity_pages: int) -> int:
    """Reference OrderedDict LRU loop over the compressed stream."""
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


def _lru_suspect_distances(
    prev: np.ndarray, suspects: np.ndarray
) -> np.ndarray:
    """For each suspect index ``i``, count ``#{k < i : prev[k] > prev[i]}``.

    That count is the number of *duplicate* accesses inside the suspect's
    reuse window ``(prev[i], i)`` — pages seen there whose own previous
    occurrence also falls after ``prev[i]`` don't add a distinct page.
    (Every ``k <= prev[i]`` has ``prev[k] < k <= prev[i]``, so the prefix
    form over all ``k < i`` equals the in-window count.)

    Counted with a block decomposition: full blocks of ``prev`` are
    sorted once and binary-searched per suspect; the suspect's own
    partial block is counted directly.  Cost is roughly
    ``O(n log B + s * (n / B + log B))`` for ``s`` suspects.
    """
    n = int(prev.size)
    s = int(suspects.size)
    thresholds = prev[suspects]
    counts = np.zeros(s, dtype=np.int64)
    block = _LRU_BLOCK
    num_full = n // block
    if num_full:
        sorted_blocks = np.sort(
            prev[: num_full * block].reshape(num_full, block), axis=1
        )
        for b in range(num_full):
            # Suspects strictly after this block see the whole block.
            lo = int(np.searchsorted(suspects, (b + 1) * block))
            if lo == s:
                break
            counts[lo:] += block - np.searchsorted(
                sorted_blocks[b], thresholds[lo:], side="right"
            )
    for idx in range(s):
        i = int(suspects[idx])
        start = (i // block) * block
        if start < i:
            counts[idx] += int(
                np.count_nonzero(prev[start:i] > thresholds[idx])
            )
    return counts


def lru_hit_count(
    pages: np.ndarray,
    capacity_pages: int,
    prepared: Optional[PreparedPages] = None,
) -> int:
    """Exact LRU hit count (recency eviction, hits promote to MRU).

    LRU is a stack algorithm: an access hits iff the number of distinct
    pages since the previous access to the same page is at most
    ``capacity - 1``.  On the compressed stream the raw index gap already
    bounds that number from above, so ``gap <= capacity`` guarantees a
    hit; only the remaining "suspects" need the exact distinct count,
    obtained by subtracting in-window duplicates (see
    :func:`_lru_suspect_distances`).
    """
    if capacity_pages < 1:
        raise ConfigError("capacity must be at least one page")
    prep = prepared if prepared is not None else prepare_pages(pages)
    if prep.accesses == 0:
        return 0
    if prep.distinct <= capacity_pages:
        return prep.accesses - prep.distinct
    prev = prep.prev
    m = prev.size
    idx = np.arange(m, dtype=np.int64)
    gap = idx - prev  # >= 1; huge where prev == -1
    seen_before = prev >= 0
    sure_hits = seen_before & (gap <= capacity_pages)
    maybe = np.nonzero(seen_before & ~sure_hits)[0]
    hits = int(sure_hits.sum())
    if maybe.size:
        # Sure-miss prefilter: first occurrences inside the reuse window
        # (prev_i, i) are distinct by definition, so their prefix count
        # lower-bounds the stack distance.  At least ``capacity`` of them
        # means a guaranteed eviction — resolved in O(1) per access.
        first_prefix = np.cumsum(prev < 0)
        new_in_window = first_prefix[maybe - 1] - first_prefix[prev[maybe]]
        suspects = maybe[new_in_window < capacity_pages]
        # Cost-based crossover: the decomposition pays about one binary
        # search per (suspect, preceding block) while the OrderedDict
        # loop pays a constant per access, so hand long streams with
        # many spread-out suspects to the loop.
        num_blocks = m // _LRU_BLOCK + 1
        if (
            suspects.size > m * _LRU_SUSPECT_FRACTION
            or suspects.size * num_blocks > 16 * m
        ):
            return _lru_hits_loop(prep, capacity_pages)
        if suspects.size:
            dup_in_window = _lru_suspect_distances(prev, suspects)
            distinct_between = (suspects - prev[suspects] - 1) - dup_in_window
            hits += int(
                np.count_nonzero(distinct_between <= capacity_pages - 1)
            )
    return prep.dup_hits + hits


def replay_pages_fast(
    cache: Cache,
    pages: np.ndarray,
    prepared: Optional[PreparedPages] = None,
) -> "int | None":
    """Hit count of ``pages`` through ``cache``'s policy, or None.

    Returns None for cache types without a fast path (callers fall back
    to the scalar reference).  Does **not** mutate the cache: the fast
    paths compute counts analytically, so residency is left untouched.
    """
    # Exact type checks: subclasses may override policy behaviour.
    if type(cache) is FrozenCache:
        return frozen_hit_count(
            pages, cache.start_page, cache.capacity_pages
        )
    if type(cache) is FifoCache:
        return fifo_hit_count(pages, cache.capacity_pages, prepared)
    if type(cache) is LruCache:
        return lru_hit_count(pages, cache.capacity_pages, prepared)
    return None


def _policy_label(cache: Cache) -> str:
    """Short policy name for telemetry labels (``FifoCache`` -> ``fifo``)."""
    name = type(cache).__name__
    return (name[:-5] if name.endswith("Cache") else name).lower()


#: Per-registry memo of counter handles.  ``replay_many`` runs once per
#: (VD, cache size) — a microsecond-scale unit of work at small trace
#: counts — so even the registry's labeled-series lookup is worth
#: skipping on repeat calls.  Keyed weakly so dropped telemetry handles
#: (tests, sessions) don't pin their registries.
_COUNTER_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()


def _counter(telemetry, name: str, policy: Optional[str] = None):
    """Memoized ``telemetry.counter(...)`` for the replay hot path."""
    memo = _COUNTER_MEMO.get(telemetry.registry)
    if memo is None:
        memo = _COUNTER_MEMO[telemetry.registry] = {}
    key = (name, policy)
    counter = memo.get(key)
    if counter is None:
        if policy is None:
            counter = telemetry.counter(name)
        else:
            counter = telemetry.counter(name, policy=policy)
        memo[key] = counter
    return counter


def _record_replay(cache: Cache, pages: int, fast: bool) -> None:
    """Count one replay: fast-path taken vs fallback-to-scalar."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    policy = _policy_label(cache)
    if fast:
        _counter(telemetry, "cache.replay.fast", policy).inc()
        _counter(telemetry, "cache.replay.pages", policy).inc(pages)
    else:
        _counter(telemetry, "cache.replay.fallback_scalar", policy).inc()


def replay_trace_fast(cache: Cache, traces: TraceDataset) -> float:
    """Fast-path equivalent of :func:`repro.cache.simulate.replay_trace`.

    Returns the hit ratio and updates ``cache.stats`` with the exact same
    hit/miss totals the scalar path would produce.  Falls back to the
    scalar path for cache types without a fast implementation.
    """
    if len(traces) == 0:
        return 0.0
    pages = pages_in_time_order(traces)
    hits = replay_pages_fast(cache, pages)
    if hits is None:
        from repro.cache.simulate import replay_trace

        _record_replay(cache, int(pages.size), fast=False)
        return replay_trace(cache, traces)
    _record_replay(cache, int(pages.size), fast=True)
    cache.stats.hits += int(hits)
    cache.stats.misses += int(pages.size - hits)
    return cache.stats.hit_ratio


def replay_many(
    caches: "Iterable[tuple[str, Cache]] | Dict[str, Cache]",
    traces: TraceDataset,
    prepared: Optional[PreparedPages] = None,
) -> "dict[str, float]":
    """Replay one trace through several caches, sharing the preparation.

    The page extraction / time sort / compression / previous-occurrence
    work is done once and reused by every policy; each cache's stats are
    updated exactly as :func:`replay_trace_fast` would.  Returns the hit
    ratio per cache name.  Pass a :class:`PreparedPages` built from the
    same trace to also share the preparation *across* calls (e.g. one VD
    replayed at several capacities).
    """
    items = list(caches.items()) if isinstance(caches, dict) else list(caches)
    if len(traces) == 0:
        return {name: 0.0 for name, _ in items}
    telemetry = get_telemetry()
    if prepared is None:
        prepared = prepare_pages(pages_in_time_order(traces))
        if telemetry.enabled:
            _counter(telemetry, "cache.prepared.build").inc()
    elif telemetry.enabled:
        # The caller shared one PreparedPages across calls: the page sort /
        # compression / prev-index work was reused, not recomputed.
        _counter(telemetry, "cache.prepared.reuse").inc()
    pages = prepared.pages
    ratios: "dict[str, float]" = {}
    for name, cache in items:
        hits = replay_pages_fast(cache, pages, prepared)
        if hits is None:
            from repro.cache.simulate import replay_trace

            _record_replay(cache, int(pages.size), fast=False)
            ratios[name] = replay_trace(cache, traces)
            continue
        _record_replay(cache, int(pages.size), fast=True)
        cache.stats.hits += int(hits)
        cache.stats.misses += int(pages.size - hits)
        ratios[name] = cache.stats.hit_ratio
    return ratios
