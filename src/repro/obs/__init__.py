"""``repro.obs`` — DiTing-style run telemetry for the reproduction pipeline.

The paper's measurement methodology rests on DiTing, a Dapper-like
tracer recording per-IO component latencies and full-volume
second-granularity metrics.  This package dogfoods that philosophy onto
the *analysis stack itself*: every study run can emit an auditable
telemetry artifact (``telemetry.json``) describing what the pipeline did
— records emitted, cache pages replayed, per-stage wall
clock, peak RSS — next to the results it produced.

Three pieces:

- :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  (log-bucketed) series in a :class:`MetricsRegistry` with deterministic
  snapshot/merge semantics (an N-worker run merges byte-identically to a
  1-worker run).
- :mod:`repro.obs.spans` — nested monotonic spans with exact-count or
  probabilistic sampling (mirroring :mod:`repro.trace.sampling`) and a
  Chrome ``trace_event`` export for chrome://tracing / Perfetto.
- :mod:`repro.obs.runtime` — the process-global :class:`Telemetry`
  handle: disabled by default (no-op nulls), installed per run via
  :func:`telemetry_session` or the CLI's ``--telemetry PATH``.  What is
  measured is the enabled mode: ``benchmarks/perf_gate.py`` holds the
  median trace overhead of its perfbench runs at or below 25%.

The live observability plane layers on top:

- :mod:`repro.obs.server` — an stdlib-only scrape endpoint
  (``/metrics`` Prometheus text, ``/snapshot`` JSON, ``/healthz``
  liveness, ``/recorder``), attached via ``Telemetry.serve()`` or
  ``ebs-repro live --serve``;
- :mod:`repro.obs.recorder` — the flight recorder: a bounded ring of
  per-interval counter/rate/queue-depth snapshots dumped into the
  artifact's ``recorder`` section;
- :mod:`repro.obs.slo` — declarative objectives
  (``metric:p99<X``, ``drops/total<Y``) with error-budget burn rates;
- :mod:`repro.obs.promtext` — a strict parser/validator for the text
  exposition format, run by CI against every scrape.

See ``docs/observability.md`` for the metric-name catalogue and the span
naming convention, and ``repro obs report/export/validate/promcheck``
for the CLI.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.runtime import (
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    get_telemetry,
    peak_rss_bytes,
    set_telemetry,
    telemetry_session,
)
from repro.obs.schema import validate_telemetry
from repro.obs.spans import Tracer, stage_summary, to_chrome_trace
from repro.obs.export import EXPORT_FORMATS, export_telemetry
from repro.obs.promtext import parse_promtext, validate_promtext
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SloObjective, SloTracker, parse_slo
from repro.obs.server import ObsServer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "get_telemetry",
    "peak_rss_bytes",
    "set_telemetry",
    "telemetry_session",
    "validate_telemetry",
    "Tracer",
    "stage_summary",
    "to_chrome_trace",
    "EXPORT_FORMATS",
    "export_telemetry",
    "parse_promtext",
    "validate_promtext",
    "FlightRecorder",
    "SloObjective",
    "SloTracker",
    "parse_slo",
    "ObsServer",
]
