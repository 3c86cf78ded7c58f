"""Trace-level IO characterization helpers.

These back the supplementary experiments: per-component latency breakdown
(the five stages DiTing traces, §2.3), IO-size profiles per direction, and
inter-arrival statistics (the self-similarity angle of the related work the
paper cites).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.util.errors import ConfigError

_COMPONENT_FIELDS = {
    "compute": "lat_compute_us",
    "frontend": "lat_frontend_us",
    "block_server": "lat_block_server_us",
    "backend": "lat_backend_us",
    "chunk_server": "lat_chunk_server_us",
}


def latency_breakdown(
    traces: TraceDataset, direction: "str | None" = None
) -> "Dict[str, Dict[str, float]]":
    """Per-component latency summary: mean, p50, p99, and share of total.

    ``direction`` filters to reads or writes; None keeps everything.
    """
    if direction not in (None, "read", "write"):
        raise ConfigError("direction must be None, 'read' or 'write'")
    subset = traces
    if direction == "read":
        subset = traces.reads()
    elif direction == "write":
        subset = traces.writes()
    if len(subset) == 0:
        raise ConfigError("no traces to summarize")
    total = subset.latency_us
    total_mean = float(total.mean())
    out: Dict[str, Dict[str, float]] = {}
    for name, field_name in _COMPONENT_FIELDS.items():
        values = getattr(subset, field_name)
        out[name] = {
            "mean_us": float(values.mean()),
            "p50_us": float(np.percentile(values, 50)),
            "p99_us": float(np.percentile(values, 99)),
            "share": float(values.mean() / total_mean) if total_mean else 0.0,
        }
    out["total"] = {
        "mean_us": total_mean,
        "p50_us": float(np.percentile(total, 50)),
        "p99_us": float(np.percentile(total, 99)),
        "share": 1.0,
    }
    return out


def io_size_summary(traces: TraceDataset) -> "Dict[str, Dict[str, float]]":
    """Read/write IO-size profiles (bytes): median, mean, p99."""
    out: Dict[str, Dict[str, float]] = {}
    for label, subset in (("read", traces.reads()), ("write", traces.writes())):
        if len(subset) == 0:
            continue
        sizes = subset.size_bytes.astype(float)
        out[label] = {
            "count": float(len(subset)),
            "median_bytes": float(np.median(sizes)),
            "mean_bytes": float(sizes.mean()),
            "p99_bytes": float(np.percentile(sizes, 99)),
        }
    if not out:
        raise ConfigError("no traces to summarize")
    return out


def inter_arrival_cv(traces: TraceDataset, vd_id: int) -> "float | None":
    """Coefficient of variation of one VD's IO inter-arrival times.

    CV = 1 for a Poisson arrival process; cloud block traffic is far
    burstier (CV >> 1), the self-similarity signature of the related
    characterization work.  Returns None with fewer than 3 traced IOs.
    """
    rows = traces.group_rows("vd_id", vd_id)
    if rows.size < 3:
        return None
    times = np.sort(traces.timestamp[rows])
    gaps = np.diff(times)
    mean = gaps.mean()
    if mean == 0:
        return None
    return float(gaps.std() / mean)


def inter_arrival_cvs(
    traces: TraceDataset, min_traces: int = 100
) -> List[float]:
    """Inter-arrival CV for every VD with at least ``min_traces`` IOs."""
    if min_traces < 3:
        raise ConfigError("min_traces must be >= 3")
    ids, counts = np.unique(traces.vd_id, return_counts=True)
    out: List[float] = []
    for vd_id, count in zip(ids, counts):
        if count < min_traces:
            continue
        value = inter_arrival_cv(traces, int(vd_id))
        if value is not None:
            out.append(value)
    return out
