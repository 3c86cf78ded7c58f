"""Failure-attributed results: what the faults did to one simulation.

A :class:`FaultOutcome` rides on :class:`SimulationResult.faults` (``None``
for failure-free runs, so every existing dataset and digest is untouched).
It carries three layers of attribution:

- the metric-domain :class:`~repro.faults.timeline.FaultAccounting`
  (per-second IOPS/byte mass redirected, queued, retried, or dropped by
  pass 1) and its conservation check;
- trace-domain counters from pass 2 (sampled IOs redirected / queued /
  dropped / latency-degraded, redirect retries, and the degraded-latency
  fraction);
- per-fault-window latency stats: for every scheduled event, the P99 of
  end-to-end sampled latency *inside* the window next to the all-run P99
  — the "what did this failure cost" column of the sensitivity sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.timeline import FaultAccounting

#: Keys of the pass-2 (trace-domain) counter dict; kept in one place so the
#: simulator, the merge, and the tests agree on the vocabulary.
TRACE_STAT_KEYS = (
    "total_ios",
    "redirected_ios",
    "retries",
    "queued_ios",
    "dropped_ios",
    "stall_redirected_ios",
    "degraded_ios",
)


def empty_trace_stats() -> Dict[str, int]:
    return {key: 0 for key in TRACE_STAT_KEYS}


def merge_trace_stats(
    into: Dict[str, int], other: Optional[Dict[str, int]]
) -> Dict[str, int]:
    """Accumulate one per-VD stat dict into the run-level aggregate."""
    if other:
        for key in TRACE_STAT_KEYS:
            into[key] += int(other.get(key, 0))
    return into


@dataclass(frozen=True)
class FaultWindowStat:
    """Latency attribution for one scheduled fault window."""

    kind: str
    start_s: int
    end_s: int
    target: Optional[int]
    component: Optional[str]
    ios_in_window: int
    p99_in_window_us: float      # NaN when no IO falls inside the window
    p99_overall_us: float

    @property
    def p99_inflation(self) -> float:
        """In-window P99 / overall P99 (NaN when either is undefined)."""
        if self.p99_overall_us > 0 and self.p99_in_window_us == self.p99_in_window_us:
            return self.p99_in_window_us / self.p99_overall_us
        return float("nan")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "target": self.target,
            "component": self.component,
            "ios_in_window": self.ios_in_window,
            "p99_in_window_us": self.p99_in_window_us,
            "p99_overall_us": self.p99_overall_us,
        }


@dataclass
class FaultOutcome:
    """Everything one simulation knows about its injected faults."""

    plan: FaultPlan
    accounting: FaultAccounting = field(default_factory=FaultAccounting)
    trace_stats: Dict[str, int] = field(default_factory=empty_trace_stats)
    windows: List[FaultWindowStat] = field(default_factory=list)

    @property
    def degraded_latency_fraction(self) -> float:
        """Share of sampled IOs whose latency hit a degrade window."""
        total = self.trace_stats.get("total_ios", 0)
        if total <= 0:
            return 0.0
        return self.trace_stats.get("degraded_ios", 0) / total

    @property
    def dropped_fraction(self) -> float:
        """Share of offered metric-domain storage IOs that were dropped."""
        offered = self.accounting.offered_storage_ios
        if offered <= 0.0:
            return 0.0
        return self.accounting.dropped_storage_ios / offered

    def conservation_residual(self) -> "tuple[float, float]":
        """The accounting's :meth:`FaultAccounting.conservation_residual`."""
        return self.accounting.conservation_residual()

    def summary_rows(self) -> List[List[Any]]:
        """(metric, value) rows for report tables."""
        stats = self.trace_stats
        rows: List[List[Any]] = [
            ["fault_events", len(self.plan)],
            ["policy", self.plan.policy.value],
        ]
        rows.extend(self.accounting.as_rows())
        rows.extend(
            [
                ["trace_redirected_ios", stats["redirected_ios"]],
                ["trace_retries", stats["retries"]],
                ["trace_queued_ios", stats["queued_ios"]],
                ["trace_dropped_ios", stats["dropped_ios"]],
                ["degraded_latency_fraction",
                 round(self.degraded_latency_fraction, 4)],
            ]
        )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "accounting": dict(self.accounting.__dict__),
            "trace_stats": dict(self.trace_stats),
            "windows": [window.to_dict() for window in self.windows],
        }


def compute_window_stats(plan: FaultPlan, latency) -> List[FaultWindowStat]:
    """Per-fault-window P99 of end-to-end sampled latency.

    ``latency`` is the run's :class:`repro.trace.dataset.TraceLatency`
    (``TraceLatency.of(traces)`` for a trace dataset).  Windows with no
    sampled IO get a NaN P99 (rendered as ``-`` in tables).
    """
    if not len(plan):
        return []
    seconds = np.floor(np.asarray(latency.timestamp)).astype(np.int64)
    total_us = np.asarray(latency.total_us)
    overall = (
        float(np.percentile(total_us, 99)) if total_us.size else float("nan")
    )
    windows: List[FaultWindowStat] = []
    for event in plan.events:
        mask = (seconds >= event.start_s) & (seconds < event.end_s)
        count = int(mask.sum())
        p99 = (
            float(np.percentile(total_us[mask], 99))
            if count
            else float("nan")
        )
        windows.append(
            FaultWindowStat(
                kind=event.kind.value,
                start_s=event.start_s,
                end_s=event.end_s,
                target=event.target,
                component=event.component,
                ios_in_window=count,
                p99_in_window_us=p99,
                p99_overall_us=overall,
            )
        )
    return windows
