"""Streaming frequency sketches: Count-Min and Space-Saving top-K.

The live pipeline tracks hot segments without holding per-segment state
for the whole fleet: a :class:`CountMinSketch` gives an always-an-
overestimate point query for *any* segment in O(depth), and a
:class:`SpaceSaving` summary keeps the candidate top-K with per-entry
error bounds.  Both accept *weighted* batch updates (bytes, not just
counts) — the hot-segment ranking the paper's §6 balancer consumes is a
traffic ranking.

Guarantees pinned by the tests:

- Count-Min never underestimates: ``estimate(k) >= true(k)`` for every
  key, any stream, any seed.
- Space-Saving monitors every key whose true weight exceeds its
  ``min_count`` (so whenever the error bound permits a clean cut, the
  summary's candidates are a superset of the true top-K), and each
  entry brackets the truth: ``count - error <= true <= count``.

Space-Saving evicts in O(log K): a lazily invalidated min-heap of
``(count, key)`` pairs sits beside the counts, so an eviction in a
churning tail costs a few heap operations instead of a scan of all K
monitored entries.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.util.errors import ConfigError

#: Fixed 64-bit odd multipliers are drawn from this seed so sketch
#: contents are reproducible run to run.
_HASH_SEED = 0x5EED


def _check_batch(keys: np.ndarray, weights: np.ndarray) -> None:
    """Reject a batch unless its weights match the keys and are finite, >= 0."""
    if keys.shape != weights.shape:
        raise ConfigError("keys and weights must have the same shape")
    if weights.size and not (
        np.isfinite(weights).all() and (weights >= 0).all()
    ):
        raise ConfigError("weights must be finite and >= 0")


class CountMinSketch:
    """A depth x width counting sketch with multiply-shift row hashes."""

    def __init__(self, width: int = 2048, depth: int = 4, seed: int = _HASH_SEED):
        if width < 2:
            raise ConfigError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        self.width = int(width)
        self.depth = int(depth)
        rng = np.random.default_rng(seed)
        # Odd multipliers make the multiply-shift hash 2-universal enough;
        # the add keeps distinct rows decorrelated.
        self._mul = (
            rng.integers(1, 2**63, size=depth, dtype=np.uint64) * 2 + 1
        )
        self._add = rng.integers(0, 2**63, size=depth, dtype=np.uint64)
        self._table = np.zeros((depth, width), dtype=float)
        self.total_weight = 0.0

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) bucket indexes for ``keys`` (uint64 wraparound hash)."""
        k = keys.astype(np.uint64, copy=False)
        with np.errstate(over="ignore"):
            mixed = (
                k[None, :] * self._mul[:, None] + self._add[:, None]
            ) >> np.uint64(17)
        return (mixed % np.uint64(self.width)).astype(np.int64)

    def update_many(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Add ``weights`` (finite, non-negative) to the buckets of ``keys``."""
        _check_batch(keys, weights)
        if keys.size == 0:
            return
        rows = self._rows(keys)
        for row in range(self.depth):
            np.add.at(self._table[row], rows[row], weights)
        self.total_weight += float(weights.sum())

    def estimate(self, key: int) -> float:
        """An overestimate of the key's accumulated weight."""
        return float(self.estimate_many(np.asarray([key], dtype=np.int64))[0])

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        if keys.size == 0:
            return np.zeros(0)
        rows = self._rows(np.asarray(keys))
        estimates = np.stack(
            [self._table[row, rows[row]] for row in range(self.depth)]
        )
        return estimates.min(axis=0)

    def to_dict(self) -> "Dict[str, float]":
        return {
            "width": self.width,
            "depth": self.depth,
            "total_weight": self.total_weight,
        }


class SpaceSaving:
    """The Metwally et al. top-K summary, weighted-update variant.

    At most ``capacity`` keys are monitored.  A new key admitted into a
    full summary inherits the smallest monitored count as its error
    bound — the classic invariants (``sum(counts) == total stream
    weight``, ``min_count <= total / capacity``, every key with true
    weight above ``min_count`` is monitored) carry over unchanged to
    weighted updates.

    Eviction costs O(log K) amortised.  ``_heap`` holds ``(count, key)``
    pairs: every admission and increment pushes the key's new pair and
    leaves its old one behind.  A pair is stale when ``count`` is no
    longer the key's monitored count; stale pairs are popped only when
    they surface at the top, and the live minimum is then replaced by
    the admitted key's pair in one ``heapreplace``.  Tuple order is the
    tie-break: smallest count, then smallest key, so the victim does
    not depend on dict insertion history and replays are deterministic.
    When pushes outnumber evictions (hot keys re-hit) the heap is
    rebuilt from the counts once it holds more than ``4 * capacity +
    64`` pairs, so memory stays O(K).

    An optional :class:`CountMinSketch` backs the summary: it absorbs
    every update too, so evicted keys keep a queryable (over)estimate
    and the reported top-K can carry a second, independent bound.
    """

    def __init__(
        self, capacity: int, sketch: "CountMinSketch | None" = None
    ):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.sketch = sketch
        self._counts: Dict[int, float] = {}
        self._errors: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []
        self.total_weight = 0.0

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: int) -> bool:
        return key in self._counts

    @property
    def min_count(self) -> float:
        """The eviction threshold: 0.0 while the summary has free slots."""
        counts = self._counts
        if len(counts) < self.capacity:
            return 0.0
        heap = self._heap
        while counts.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
        return heap[0][0]

    def update(self, key: int, weight: float = 1.0) -> None:
        if not 0 <= weight < math.inf:
            raise ConfigError(f"weight must be finite and >= 0, got {weight}")
        self._fold((key,), (weight,))

    def update_many(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Batch update: pre-aggregates duplicate keys, then folds them in.

        The whole batch is validated first, so a rejected batch leaves
        the summary and its sketch untouched.  ``np.unique`` ordering
        makes the fold deterministic; the sketch (when attached) absorbs
        the same aggregated increments.
        """
        _check_batch(keys, weights)
        if keys.size == 0:
            return
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inverse, weights)
        if self.sketch is not None:
            self.sketch.update_many(uniq, sums)
        self._fold(uniq.tolist(), sums.tolist())

    def _fold(self, keys: Sequence[int], weights: Sequence[float]) -> None:
        """Fold validated ``(key, weight)`` increments in, in order."""
        counts = self._counts
        errors = self._errors
        heap = self._heap
        capacity = self.capacity
        limit = 4 * capacity + 64
        push = heapq.heappush
        pop = heapq.heappop
        replace = heapq.heapreplace
        total = self.total_weight
        for key, weight in zip(keys, weights):
            total += weight
            count = counts.get(key)
            if count is not None:
                count += weight
            elif len(counts) < capacity:
                count = weight
                errors[key] = 0.0
            else:
                # Evict the live minimum: stale pairs at the top go first.
                floor, victim = heap[0]
                while counts.get(victim) != floor:
                    pop(heap)
                    floor, victim = heap[0]
                del counts[victim], errors[victim]
                count = floor + weight
                counts[key] = count
                errors[key] = floor
                replace(heap, (count, key))
                continue
            counts[key] = count
            push(heap, (count, key))
            if len(heap) > limit:
                heap[:] = [(c, k) for k, c in counts.items()]
                heapq.heapify(heap)
        self.total_weight = total

    def topk(self, k: "int | None" = None) -> "List[Tuple[int, float, float]]":
        """``(key, count, error)`` triples, heaviest first (ties: key asc)."""
        entries = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        if k is not None:
            entries = entries[:k]
        return [
            (key, count, self._errors[key]) for key, count in entries
        ]

    def to_dict(self, k: "int | None" = None) -> "List[Dict[str, float]]":
        return [
            {"key": key, "count": count, "error": error}
            for key, count, error in self.topk(k)
        ]
