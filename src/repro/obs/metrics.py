"""Metrics primitives: counters, gauges, log-bucketed histograms, a registry.

Dogfooding the paper's DiTing philosophy onto the reproduction pipeline
itself: every run can emit full-volume counters describing what the
analysis stack did (records emitted, cache pages replayed, throttled
seconds, sampled IOs) next to the results it produced.

Design rules, enforced by convention and pinned by tests:

- **Metrics are functions of the data, never of the clock.**  Everything
  recorded through this module must be deterministic given the study
  seed — wall-clock and RSS belong in spans (:mod:`repro.obs.spans`) or
  run metadata, not here.  That is what makes the merged metrics of an
  ``N``-worker run byte-identical to a 1-worker run.
- **Integer-valued observations.**  Counter increments and histogram
  observations are integer quantities (bytes, IOs, rows, seconds), so
  float accumulation is exact (up to 2**53) in any merge order.
- **Vectorization-friendly.**  Hot paths accumulate from array *sizes*
  and array *sums*, never via per-element callbacks;
  :meth:`Histogram.observe_many` buckets a whole array in one pass.

The module is dependency-free: numpy is used opportunistically for
``observe_many`` but everything works without it.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.util.errors import ConfigError

try:  # pragma: no cover - numpy is a core dependency of the repo, but the
    import numpy as _np  # obs subsystem stays importable without it.
except ImportError:  # pragma: no cover
    _np = None

#: Label key/value pairs, canonicalized to a sorted tuple of string pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    if not labels:
        return ()
    if len(labels) == 1:  # the common hot-path shape: one label
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing counter (merge: sum)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: "int | float" = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        self.value += payload["value"]


class Gauge:
    """A point-in-time value (merge: max, so merges are order-free)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: "int | float") -> None:
        self.value = value

    def set_max(self, value: "int | float") -> None:
        if self.value is None or value > self.value:
            self.value = value

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        value = payload["value"]
        if value is not None:
            self.set_max(value)


class Histogram:
    """Log-bucketed histogram (base 2), sparse over bucket exponents.

    Bucket ``e`` covers ``(2**(e-1), 2**e]``; exact powers of two land on
    their own upper edge (computed exactly via ``frexp``, no log/ceil
    rounding hazards).  Zero observations are counted separately in
    ``zeros``; negative observations are rejected.  Merging adds bucket
    counts, counts, and sums, and takes min/max of the extrema — all
    order-free for integer-valued observations.
    """

    __slots__ = ("buckets", "count", "sum", "zeros", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count: int = 0
        self.sum: float = 0
        self.zeros: int = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @staticmethod
    def bucket_of(value: "int | float") -> int:
        """Bucket exponent of one positive value: smallest e with 2**e >= v."""
        mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exp
        if mantissa == 0.5:  # exact power of two: its own upper edge
            return exponent - 1
        return exponent

    @staticmethod
    def bucket_edges(exponent: int) -> "Tuple[float, float]":
        """(exclusive lower, inclusive upper) edge of bucket ``exponent``."""
        return (2.0 ** (exponent - 1), 2.0 ** exponent)

    def observe(self, value: "int | float", count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if count <= 0:
            return
        value = float(value)
        if value < 0:
            raise ConfigError(f"histogram values must be >= 0, got {value}")
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += count
            return
        e = self.bucket_of(value)
        self.buckets[e] = self.buckets.get(e, 0) + count

    def observe_many(self, values: Iterable["int | float"]) -> None:
        """Vectorized :meth:`observe` over an array of observations."""
        if _np is not None:
            arr = _np.asarray(values, dtype=_np.float64).ravel()
            if arr.size == 0:
                return
            if bool(_np.any(arr < 0)):
                raise ConfigError("histogram values must be >= 0")
            self.count += int(arr.size)
            self.sum += float(arr.sum())
            lo = float(arr.min())
            hi = float(arr.max())
            if self.min is None or lo < self.min:
                self.min = lo
            if self.max is None or hi > self.max:
                self.max = hi
            zero = arr == 0.0
            nz = int(zero.sum())
            if nz:
                self.zeros += nz
                arr = arr[~zero]
            if arr.size:
                mantissa, exponent = _np.frexp(arr)
                exponent = _np.where(mantissa == 0.5, exponent - 1, exponent)
                exps, counts = _np.unique(exponent, return_counts=True)
                for e, c in zip(exps.tolist(), counts.tolist()):
                    self.buckets[int(e)] = self.buckets.get(int(e), 0) + int(c)
            return
        for value in values:  # pragma: no cover - numpy-less fallback
            self.observe(value)

    def to_dict(self) -> Dict[str, Any]:
        # dict() is a C-level copy, atomic under the GIL: a scrape can
        # snapshot while a pipeline thread inserts new buckets.
        buckets = dict(self.buckets)
        return {
            "count": self.count,
            "sum": self.sum,
            "zeros": self.zeros,
            "min": self.min,
            "max": self.max,
            "buckets": [[e, buckets[e]] for e in sorted(buckets)],
        }

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        self.count += payload["count"]
        self.sum += payload["sum"]
        self.zeros += payload["zeros"]
        for bound in ("min", "max"):
            value = payload[bound]
            if value is None:
                continue
            current = getattr(self, bound)
            if (
                current is None
                or (bound == "min" and value < current)
                or (bound == "max" and value > current)
            ):
                setattr(self, bound, value)
        for e, count in payload["buckets"]:
            e = int(e)
            self.buckets[e] = self.buckets.get(e, 0) + int(count)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Labeled metric series with deterministic snapshot/merge semantics.

    One series is ``(kind, name, sorted labels)``; requesting the same
    series twice returns the same object, and requesting an existing name
    under a different *kind* raises (label collisions across kinds are
    almost always instrumentation bugs).  Snapshots are sorted by
    ``(name, labels)``, so their JSON form is independent of creation
    order — a prerequisite for the byte-identity guarantee across worker
    counts.

    Series lookup and snapshot/merge hold an internal lock, so a scrape
    thread (:mod:`repro.obs.server`) can snapshot while pipeline threads
    register new series — the snapshot is a *consistent point-in-time
    view* of the series table.  Recording through an already-fetched
    series object stays lock-free (hot paths cache their handles).
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, str] = {}
        # RLock: merge_snapshot calls _get while already holding it.
        self._lock = threading.RLock()

    def _get(self, kind: str, name: str, labels: Dict[str, Any]):
        if not name:
            raise ConfigError("metric name must be non-empty")
        with self._lock:
            known = self._kinds.get(name)
            if known is None:
                self._kinds[name] = kind
            elif known != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as a {known}, "
                    f"cannot re-register as a {kind}"
                )
            key = (name, _label_key(labels))
            series = self._series.get(key)
            if series is None:
                series = _KINDS[kind]()
                self._series[key] = series
            return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def __len__(self) -> int:
        return len(self._series)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-friendly, deterministically ordered view of every series."""
        out: Dict[str, List[Dict[str, Any]]] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        with self._lock:
            for (name, labels) in sorted(self._series):
                series = self._series[(name, labels)]
                entry = {"name": name, "labels": dict(labels)}
                entry.update(series.to_dict())
                out[series.kind + "s"].append(entry)
        return out

    def merge_snapshot(self, snapshot: Dict[str, List[Dict[str, Any]]]) -> None:
        """Fold one :meth:`snapshot` payload into this registry.

        Counters add, gauges keep their maximum, histograms add bucket
        counts — so merging per-worker snapshots in any order yields the
        same registry as a single-process run recording the same events.
        """
        with self._lock:
            for kind in ("counter", "gauge", "histogram"):
                for entry in snapshot.get(kind + "s", ()):
                    series = self._get(kind, entry["name"], entry["labels"])
                    series.merge_dict(entry)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())


def merge_snapshots(
    snapshots: Iterable[Dict[str, List[Dict[str, Any]]]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Merge many registry snapshots into one (order-free for our metrics)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()
