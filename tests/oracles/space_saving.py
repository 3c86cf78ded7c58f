"""Reference Space-Saving summary, kept as a test oracle.

This is the straightforward form of :class:`repro.live.SpaceSaving`:
every eviction scans all ``capacity`` monitored entries for the
smallest ``(count, key)`` pair, and ``update_many`` folds its
aggregated keys through one :meth:`update` call each.  It is easy to
audit and O(capacity) per eviction; the production summary must match
it bit for bit after every update (``tests/live/test_space_saving_parity.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.live.sketches import CountMinSketch
from repro.util.errors import ConfigError


class ReferenceSpaceSaving:
    """Linear-scan weighted Space-Saving with the production tie-break."""

    def __init__(
        self, capacity: int, sketch: "CountMinSketch | None" = None
    ):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.sketch = sketch
        self._counts: Dict[int, float] = {}
        self._errors: Dict[int, float] = {}
        self.total_weight = 0.0

    @property
    def min_count(self) -> float:
        if len(self._counts) < self.capacity:
            return 0.0
        return min(self._counts.values())

    def update(self, key: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ConfigError(f"weight must be >= 0, got {weight}")
        self.total_weight += weight
        if key in self._counts:
            self._counts[key] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = weight
            self._errors[key] = 0.0
            return
        # Evict the smallest count; break ties on the smallest key.
        victim = min(self._counts, key=lambda k: (self._counts[k], k))
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + weight
        self._errors[key] = floor

    def update_many(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Aggregate duplicate keys with ``np.unique``, then fold them in."""
        if keys.size == 0:
            return
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inverse, weights)
        if self.sketch is not None:
            self.sketch.update_many(uniq, sums)
        for key, weight in zip(uniq.tolist(), sums.tolist()):
            self.update(int(key), float(weight))

    def topk(self, k: "int | None" = None) -> "List[Tuple[int, float, float]]":
        entries = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        if k is not None:
            entries = entries[:k]
        return [
            (key, count, self._errors[key]) for key, count in entries
        ]
