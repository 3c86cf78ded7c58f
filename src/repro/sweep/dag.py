"""Sweep DAG construction: one study decomposes into memoizable nodes.

Each sweep point (one :class:`StudyConfig`) expands to::

    build:dc0 ─┐
    build:dc1 ─┼─> experiment:table3
    build:dc2 ─┘   experiment:fig7a
                   ...

- **build** nodes simulate one data center through
  :func:`repro.core.study.build_dc`.  Keyed by the
  :class:`~repro.core.study.BuildInputs` that function reads
  (:func:`repro.sweep.canonical.build_key`), so sweep points that differ
  in experiment knobs share these nodes.
- **experiment** nodes run one registered experiment against the
  assembled study.  Keyed by the *full* config digest + experiment id.
  They are the DAG's sinks: the sweep outcome reads their artifacts.

Experiments depend only on builds, so the graph is two levels deep and
cannot have a cycle.  Nodes are deduplicated by key across the whole
sweep — the DAG of a sweep is the union of its per-point DAGs, which is
where overlapping points start sharing work even before the on-disk
cache is consulted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.study import BuildInputs
from repro.sweep.canonical import build_key, experiment_key
from repro.util.errors import ConfigError


class NodeKind(str, enum.Enum):
    BUILD = "build"
    EXPERIMENT = "experiment"


@dataclass(frozen=True)
class SweepNode:
    """One memoizable unit of sweep work."""

    key: str
    kind: NodeKind
    label: str
    deps: Tuple[str, ...] = ()
    #: Node-specific execution context (build inputs, config,
    #: experiment_id); everything here must be picklable.
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
) -> List[SweepNode]:
    """All nodes of one sweep point: its builds, then its experiments."""
    if not experiment_ids:
        raise ConfigError("a sweep point needs at least one experiment")
    builds = build_nodes_for(config, chunk_epochs=chunk_epochs)
    build_keys = tuple(node.key for node in builds)
    nodes = list(builds)
    for experiment_id in experiment_ids:
        key = experiment_key(config, experiment_id)
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
    return ordered
