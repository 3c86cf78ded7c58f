"""Sweep DAG construction: one study decomposes into memoizable nodes.

Each sweep point (one :class:`StudyConfig`) expands to::

    build:dc0 ─┐
    build:dc1 ─┼─> experiment:table3 ─┐
    build:dc2 ─┘   experiment:fig7a  ─┼─> point
                   ...               ─┘

- **build** nodes simulate one data center through
  :func:`repro.core.study.build_dc`.  Keyed by the
  :class:`~repro.core.study.BuildInputs` that function reads
  (:func:`repro.sweep.canonical.build_key`), so sweep points that differ
  in experiment knobs share these nodes.
- **experiment** nodes run one registered experiment against the
  assembled study.  Keyed by the *full* config digest + experiment id.
- **point** nodes aggregate one sweep point's experiment digests into
  the sweep-level record.

Nodes are deduplicated by key across the whole sweep — the DAG of a
sweep is the union of its per-point DAGs, which is where overlapping
points start sharing work even before the on-disk cache is consulted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.study import BuildInputs
from repro.sweep.canonical import build_key, experiment_key, point_key
from repro.util.errors import ConfigError


class NodeKind(str, enum.Enum):
    BUILD = "build"
    EXPERIMENT = "experiment"
    POINT = "point"


@dataclass(frozen=True)
class SweepNode:
    """One memoizable unit of sweep work."""

    key: str
    kind: NodeKind
    label: str
    deps: Tuple[str, ...] = ()
    #: Node-specific execution context (build inputs, config,
    #: experiment_id, point index); everything here must be picklable.
    context: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", NodeKind(self.kind))


def build_nodes_for(
    config, chunk_epochs: "Optional[int]" = None
) -> List[SweepNode]:
    """The per-DC build nodes of one study config."""
    nodes: List[SweepNode] = []
    for dc_config in config.dc_configs:
        inputs = BuildInputs.of(config, dc_config)
        key = build_key(inputs)
        nodes.append(
            SweepNode(
                key=key,
                kind=NodeKind.BUILD,
                label=f"build:dc{dc_config.dc_id}@{key[:12]}",
                context={"inputs": inputs, "chunk_epochs": chunk_epochs},
            )
        )
    return nodes


def study_nodes(
    config,
    experiment_ids: "Tuple[str, ...]",
    chunk_epochs: "Optional[int]" = None,
    point_index: int = 0,
) -> List[SweepNode]:
    """All nodes of one sweep point, dependency-ordered."""
    if not experiment_ids:
        raise ConfigError("a sweep point needs at least one experiment")
    builds = build_nodes_for(config, chunk_epochs=chunk_epochs)
    build_keys = tuple(node.key for node in builds)
    nodes = list(builds)
    exp_keys = []
    for experiment_id in experiment_ids:
        key = experiment_key(config, experiment_id)
        exp_keys.append(key)
        nodes.append(
            SweepNode(
                key=key,
                kind=NodeKind.EXPERIMENT,
                label=f"experiment:{experiment_id}@{key[:12]}",
                deps=build_keys,
                context={
                    "config": config,
                    "experiment_id": experiment_id,
                    "build_keys": build_keys,
                },
            )
        )
    pkey = point_key(config, experiment_ids)
    nodes.append(
        SweepNode(
            key=pkey,
            kind=NodeKind.POINT,
            label=f"point:{point_index}@{pkey[:12]}",
            deps=tuple(exp_keys),
            context={
                "config": config,
                "experiment_ids": tuple(experiment_ids),
                "experiment_keys": tuple(exp_keys),
                "point_index": point_index,
            },
        )
    )
    return nodes


def merge_dags(per_point: List[List[SweepNode]]) -> List[SweepNode]:
    """Union per-point DAGs, deduplicating shared nodes by key.

    The first occurrence wins (node contexts for the same key are
    equivalent by construction — identical key means identical
    build-relevant inputs).
    """
    seen: Dict[str, SweepNode] = {}
    ordered: List[SweepNode] = []
    for nodes in per_point:
        for node in nodes:
            if node.key not in seen:
                seen[node.key] = node
                ordered.append(node)
    _check_acyclic(ordered)
    return ordered


def _check_acyclic(nodes: List[SweepNode]) -> None:
    """Defensive validation: every dep resolves and the graph is a DAG.

    By construction build < experiment < point, so cycles are impossible
    unless a bug introduces one — fail fast rather than deadlock the
    scheduler.
    """
    by_key = {node.key: node for node in nodes}
    for node in nodes:
        for dep in node.deps:
            if dep not in by_key:
                raise ConfigError(
                    f"node {node.label} depends on unknown key {dep[:12]}"
                )
    state: Dict[str, int] = {}

    def visit(key: str, depth: int = 0) -> None:
        if depth > len(nodes):
            raise ConfigError("sweep DAG has a cycle")
        if state.get(key) == 2:
            return
        if state.get(key) == 1:
            raise ConfigError("sweep DAG has a cycle")
        state[key] = 1
        for dep in by_key[key].deps:
            visit(dep, depth + 1)
        state[key] = 2

    for node in nodes:
        visit(node.key)
