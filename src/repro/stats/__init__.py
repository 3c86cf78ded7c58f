"""Statistics toolkit used throughout the paper's analyses.

- :mod:`repro.stats.skewness` — Cumulative Contribution Rate (CCR),
  Peak-to-Average ratio (P2A), and the normalized Coefficient of Variation
  (CoV) the paper uses to quantify spatial and temporal skewness.
- :mod:`repro.stats.ratios` — the normalized write-to-read ratio (Eq. 2).
- :mod:`repro.stats.distributions` — empirical CDFs, percentile summaries
  and histogram helpers backing the paper's CDF figures.
- :mod:`repro.stats.aggregation` — group-by reductions over record arrays.
"""

from repro.stats.aggregation import group_reduce, group_sum
from repro.stats.distributions import (
    EmpiricalCdf,
    fraction_at_least,
    fraction_at_most,
    histogram,
    percentile_summary,
)
from repro.stats.iostats import (
    inter_arrival_cv,
    inter_arrival_cvs,
    io_size_summary,
    latency_breakdown,
)
from repro.stats.ratios import wr_ratio, wr_ratio_arrays
from repro.stats.skewness import (
    ccr,
    ccr_curve,
    cov,
    normalized_cov,
    normalized_cov_rows,
    p2a,
    top_share,
)

__all__ = [
    "group_reduce",
    "group_sum",
    "EmpiricalCdf",
    "fraction_at_least",
    "fraction_at_most",
    "histogram",
    "percentile_summary",
    "inter_arrival_cv",
    "inter_arrival_cvs",
    "io_size_summary",
    "latency_breakdown",
    "wr_ratio",
    "wr_ratio_arrays",
    "ccr",
    "ccr_curve",
    "cov",
    "normalized_cov",
    "normalized_cov_rows",
    "p2a",
    "top_share",
]
