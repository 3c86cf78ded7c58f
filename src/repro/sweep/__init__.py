"""Incremental parameter sweeps over a content-addressed result cache.

The paper's conclusions are crossover comparisons swept over knobs —
cache size and placement (§7), lending ratio (§5), balancer strategy
(§6).  This package makes such sweeps *incremental*: every study
decomposes into a two-level DAG of content-addressed nodes (per-DC
builds feeding per-experiment analyses) whose outputs memoize in an
on-disk :class:`ArtifactStore`.  Overlapping sweep points share
builds, warm re-runs are pure cache replay, and an interrupted sweep
resumes from whatever was already published — with results byte-
identical to a cold single-shot run (see ``SweepOutcome.combined_digest``).

Module map::

    canonical     canonical config payloads -> sha256 cache keys
    store         atomic, content-addressed on-disk artifacts
    dag           node decomposition (build -> experiment)
    grid          SweepSpec axes, point expansion, the --axis language
    orchestrator  SweepRunner: one ready-queue scheduler, retries, stats, grids

Prefer the facade: :func:`repro.api.sweep`.
"""

from repro.sweep.canonical import (
    CODE_SCHEMA_VERSION,
    build_key,
    canonical_value,
    config_digest,
    digest_payload,
    experiment_key,
    result_table_digest,
)
from repro.sweep.dag import NodeKind, SweepNode, merge_dags, study_nodes
from repro.sweep.grid import (
    SweepPoint,
    SweepSpec,
    override_label,
    parse_axes,
    parse_axis,
)
from repro.sweep.orchestrator import (
    SWEEP_SCHEMA_VERSION,
    SweepOutcome,
    SweepRunner,
    SweepStats,
)
from repro.sweep.store import ArtifactStore
from repro.util.errors import SweepError

__all__ = [
    "ArtifactStore",
    "CODE_SCHEMA_VERSION",
    "NodeKind",
    "SWEEP_SCHEMA_VERSION",
    "SweepError",
    "SweepNode",
    "SweepOutcome",
    "SweepPoint",
    "SweepRunner",
    "SweepSpec",
    "SweepStats",
    "build_key",
    "canonical_value",
    "config_digest",
    "digest_payload",
    "experiment_key",
    "merge_dags",
    "override_label",
    "parse_axes",
    "parse_axis",
    "result_table_digest",
    "study_nodes",
]
