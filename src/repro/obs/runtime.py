"""The process-global telemetry handle threaded through the pipeline.

Hot layers fetch the current handle with :func:`get_telemetry` and record
through it; by default the handle is a shared **disabled** singleton
whose spans and metrics are no-ops (a handful of attribute reads per
*pass*, never per element).  The enabled mode is what is measured:
``benchmarks/perf_gate.py`` holds the median trace overhead of its
perfbench runs at or below 25%.  A run that wants telemetry installs an
enabled :class:`Telemetry` (usually via :func:`telemetry_session` or the
CLI's ``--telemetry PATH`` flag) for its duration.

The sweep's worker processes (``ebs-repro sweep --workers N``, the one
process fan-out) run each node through :func:`run_traced`, which
installs a fresh enabled handle and ships its :meth:`Telemetry.snapshot`
back to the parent; :func:`merge_traced` folds the snapshots in order.  Metrics
merge deterministically (counters add, gauges max, histogram buckets
add — all integer-valued by convention), so the merged fleet view is
byte-identical for any worker count; spans merge by concatenation and
carry their worker's pid.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Tracer

#: Version of the ``telemetry.json`` artifact layout.  Additive changes
#: (new keys, new metric names) do not bump this; breaking ones do.
TELEMETRY_SCHEMA_VERSION = 1


class _NullSpan:
    """Reusable no-op span: one shared instance serves every disabled call."""

    __slots__ = ()
    name = ""
    labels: Dict[str, Any] = {}

    def set(self, **labels: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = None

    def set(self, value: "int | float") -> None:
        pass

    def set_max(self, value: "int | float") -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: "int | float", count: int = 1) -> None:
        pass

    def observe_many(self, values: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process, or None if unavailable.

    Prefers ``/proc/self/status`` ``VmHWM`` where available: Linux's
    ``ru_maxrss`` survives ``execve()``, so a process spawned from a
    large parent would otherwise report the *parent's* high-water mark
    (which broke the streamed-vs-monolithic RSS comparison when driven
    from pytest).  ``VmHWM`` tracks the post-exec address space only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # value is in kB
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


class Telemetry:
    """One run's observability state: a metrics registry plus a tracer.

    ``enabled=False`` yields a null object: every accessor returns a
    shared no-op, so instrumented code needs no branching (though hot
    call sites may still guard expensive *amount computations* behind
    ``if telemetry.enabled``).
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_every: Optional[int] = None,
        sample_rate: Optional[float] = None,
        seed: int = 0,
    ):
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            sample_every=sample_every, sample_rate=sample_rate, seed=seed
        )
        self.meta: Dict[str, Any] = {}
        self._sections: Dict[str, Any] = {}
        self._created_unix = time.time()

    # -- recording API (null-safe) -------------------------------------------

    def span(self, name: str, **labels: Any):
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **labels)

    def counter(self, name: str, **labels: Any) -> "Counter | _NullCounter":
        if not self.enabled:
            return _NULL_COUNTER
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> "Gauge | _NullGauge":
        if not self.enabled:
            return _NULL_GAUGE
        return self.registry.gauge(name, **labels)

    def histogram(
        self, name: str, **labels: Any
    ) -> "Histogram | _NullHistogram":
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self.registry.histogram(name, **labels)

    # -- extra artifact sections ---------------------------------------------

    def attach_section(self, name: str, payload: Any) -> None:
        """Attach a named artifact section (the ``recorder`` / ``slo`` slots).

        ``payload`` is either a JSON-able value or a zero-argument
        callable resolved at *snapshot time* — so a live ``/snapshot``
        serves the section's current state and the final ``write`` gets
        its terminal state, with one registration.
        """
        if name in ("schema_version", "meta", "metrics", "spans"):
            raise ValueError(f"section name {name!r} is reserved")
        self._sections[name] = payload

    # -- snapshot / merge / persist ------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full telemetry artifact (the ``telemetry.json`` payload)."""
        payload = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "meta": dict(self.meta, created_unix=self._created_unix),
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.snapshot(),
        }
        for name, section in self._sections.items():
            payload[name] = section() if callable(section) else section
        return payload

    def merge_snapshot(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's :meth:`snapshot` into this handle (None: no-op)."""
        if snapshot is None or not self.enabled:
            return
        self.registry.merge_snapshot(snapshot.get("metrics", {}))
        self.tracer.merge_snapshot(snapshot.get("spans", ()))

    def write(self, path: "str | Path") -> Path:
        """Write the artifact to ``path`` as pretty-printed JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2) + "\n")
        return path

    # -- serving ---------------------------------------------------------------

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        recorder=None,
        slo=None,
        health=None,
    ):
        """Start a scrape server for this handle; returns the ObsServer.

        A convenience over :class:`repro.obs.server.ObsServer` (imported
        lazily so the no-telemetry fast path never pays for http.server).
        The caller owns the returned server and must ``stop()`` it.
        """
        from repro.obs.server import ObsServer

        return ObsServer(
            self, host=host, port=port, recorder=recorder, slo=slo,
            health=health,
        ).start()


#: The shared disabled singleton installed by default.
_DISABLED = Telemetry(enabled=False)
_current: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    """The currently installed telemetry handle (disabled by default)."""
    return _current


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` (None: the disabled default); returns the old."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else _DISABLED
    return previous


@contextmanager
def telemetry_session(
    enabled: bool = True,
    sample_every: Optional[int] = None,
    sample_rate: Optional[float] = None,
    seed: int = 0,
) -> Iterator[Telemetry]:
    """Install a fresh handle for the duration of a ``with`` block."""
    telemetry = Telemetry(
        enabled=enabled,
        sample_every=sample_every,
        sample_rate=sample_rate,
        seed=seed,
    )
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)


def run_traced(
    fn: Callable[..., Any], *args: Any, fresh: bool = True
) -> "Tuple[Any, Optional[Dict[str, Any]]]":
    """Child side of the worker-telemetry protocol: ``(fn(*args), snapshot)``.

    With ``fresh``, ``fn`` runs under a new enabled handle whose
    snapshot comes back with the value; the caller's handle is restored
    even when ``fn`` raises, and a failed call's partial metrics go down
    with its exception.  Without it (the parent records nothing) ``fn``
    runs under the installed handle and the snapshot is None.
    """
    if not fresh:
        return fn(*args), None
    telemetry = Telemetry(enabled=True)
    previous = set_telemetry(telemetry)
    try:
        value = fn(*args)
    finally:
        set_telemetry(previous)
    return value, telemetry.snapshot()


def merge_traced(
    outcomes: "Iterable[Tuple[Any, Optional[Dict[str, Any]]]]",
) -> List[Any]:
    """Parent side: merge :func:`run_traced` snapshots in the order given.

    Returns the values.  Counters and histogram buckets are
    integer-valued, so merging in a fixed (input) order makes the parent
    registry byte-identical to a sequential run's.
    """
    telemetry = get_telemetry()
    values = []
    for value, snapshot in outcomes:
        telemetry.merge_snapshot(snapshot)
        values.append(value)
    return values
