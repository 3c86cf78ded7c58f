"""Spatial and temporal skewness metrics.

The paper quantifies *spatial* skewness with the Cumulative Contribution
Rate (CCR) — the share of total traffic contributed by the hottest x% of
entities — and *temporal* skewness with the Peak-to-Average ratio (P2A) of a
traffic time series.  Thread/server imbalance is measured with a normalized
Coefficient of Variation (CoV) that lies in ``(0, 1]``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.util.errors import ConfigError


def _as_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigError("expected a non-empty sequence")
    if np.any(arr < 0):
        raise ConfigError("traffic values must be non-negative")
    return arr


def ccr(values: Sequence[float], fraction: float) -> float:
    """Cumulative Contribution Rate of the top ``fraction`` of entities.

    ``ccr(traffic_per_vm, 0.01)`` is the paper's "1%-CCR": the share of total
    traffic contributed by the hottest 1% of VMs.  At least one entity is
    always counted, matching how a "top 1%" is read off a ranked list.
    Returns 0.0 when total traffic is zero.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    arr = _as_array(values)
    total = float(arr.sum())
    if total == 0.0:
        return 0.0
    k = max(1, math.ceil(fraction * arr.size))
    top = np.sort(arr)[::-1][:k]
    return float(top.sum() / total)


def ccr_curve(
    values: Sequence[float], fractions: Sequence[float]
) -> "dict[float, float]":
    """CCR evaluated at several fractions with one sort."""
    arr = _as_array(values)
    total = float(arr.sum())
    ranked = np.sort(arr)[::-1]
    cumulative = np.cumsum(ranked)
    result: dict[float, float] = {}
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
        if total == 0.0:
            result[fraction] = 0.0
            continue
        k = max(1, math.ceil(fraction * arr.size))
        result[fraction] = float(cumulative[k - 1] / total)
    return result


def top_share(values: Sequence[float]) -> float:
    """Traffic share of the single hottest entity (0.0 if total is zero)."""
    arr = _as_array(values)
    total = float(arr.sum())
    if total == 0.0:
        return 0.0
    return float(arr.max() / total)


def p2a(series: Sequence[float]) -> float:
    """Peak-to-Average ratio of a traffic time series.

    Reflects burstiness: 1.0 for a flat series, large for spiky traffic.
    Returns 0.0 for an all-zero series (no traffic means no burst).
    """
    arr = _as_array(series)
    mean = float(arr.mean())
    if mean == 0.0:
        return 0.0
    return float(arr.max() / mean)


def cov(values: Sequence[float]) -> float:
    """Plain coefficient of variation (population std / mean).

    Returns 0.0 for an all-zero sequence.
    """
    arr = _as_array(values)
    mean = float(arr.mean())
    if mean == 0.0:
        return 0.0
    return float(arr.std() / mean)


def normalized_cov(values: Sequence[float]) -> float:
    """CoV normalized to ``[0, 1]`` as used by the paper.

    For ``n`` non-negative values the maximum possible CoV (all traffic on
    one entity) is ``sqrt(n - 1)``, so dividing by that bound maps a
    perfectly skewed distribution to 1.0 and a perfectly even one to 0.0
    — the range is closed at *both* ends, since an even distribution has
    zero dispersion.  A single value has no dispersion; 0.0 is returned.
    """
    arr = _as_array(values)
    if arr.size == 1:
        return 0.0
    bound = math.sqrt(arr.size - 1)
    return cov(arr) / bound


def normalized_cov_rows(matrix) -> np.ndarray:
    """:func:`normalized_cov` of every row of a 2-D array, in one call.

    Bit-for-bit equal to ``[normalized_cov(row) for row in matrix]``:
    each row's mean and standard deviation come from the same numpy
    reductions over a contiguous row.  All-zero rows and single-column
    input give 0.0; a matrix with no rows gives an empty array.
    """
    arr = np.ascontiguousarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ConfigError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ConfigError("expected non-empty rows")
    if np.any(arr < 0):
        raise ConfigError("traffic values must be non-negative")
    out = np.zeros(arr.shape[0])
    n = arr.shape[1]
    if n == 1 or arr.shape[0] == 0:
        return out
    mean = arr.mean(axis=1)
    std = arr.std(axis=1)
    live = mean != 0.0
    out[live] = std[live] / mean[live] / math.sqrt(n - 1)
    return out
