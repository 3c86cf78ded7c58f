"""The storage cluster: BlockServers, ChunkServers, and segment placement.

A BlockServer (BS) proxies block IO into file APIs and owns a set of 32 GiB
segments; ChunkServers (CSs) persist segment data on the storage node's
SSDs.  Placement is a :class:`~repro.cluster.redundancy.PlacementMap` —
a ``(num_segments, width)`` table whose column 0 is the primary copy —
so ``r``-way replication and (k, m) erasure coding share one surface
with single-copy placement as the width-1 degenerate case.  The map is
the state the inter-BS load balancer (§6) mutates, kept mutable here
with conservation checks: a migration moves exactly one copy, never
duplicates or drops one, and never co-locates two copies of a segment.
Callers use the placement-map API (``primary_of``, ``replicas_of``,
``primaries_on``, ``resident_on``, ``primary_array``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.util.errors import ConfigError, SimulationError
from repro.workload.fleet import Fleet
from repro.cluster.redundancy.config import RedundancyConfig
from repro.cluster.redundancy.placement import PlacementMap, ring_table


@dataclass(frozen=True)
class MigrationEvent:
    """One segment copy moving between BlockServers at a given time."""

    timestamp: int
    segment_id: int
    from_bs: int
    to_bs: int
    slot: int = 0  # which copy moved (0 = primary)


@dataclass(frozen=True)
class FailureEvent:
    """One BS transitioning between serving and failed."""

    timestamp: int
    bs_id: int
    action: str  # "fail" | "recover"


@dataclass
class StorageCluster:
    """Mutable segment placement over the BlockServers of one DC."""

    fleet: Fleet
    redundancy: Optional[RedundancyConfig] = None
    migration_log: List[MigrationEvent] = field(init=False, default_factory=list)
    failure_log: List[FailureEvent] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        num_bs = self.fleet.config.num_block_servers
        scheme = self.redundancy or RedundancyConfig()
        scheme.validate_against(num_bs)
        primaries = []
        for segment in self.fleet.segments:
            if not 0 <= segment.block_server_id < num_bs:
                raise ConfigError(
                    f"segment {segment.segment_id} placed on unknown BS "
                    f"{segment.block_server_id}"
                )
            primaries.append(segment.block_server_id)
        self._placement = PlacementMap(
            ring_table(primaries, scheme.width, num_bs), num_bs
        )
        self._scheme = scheme
        self._active = set(range(num_bs))
        # Transient-failure depth per BS: fault windows may nest/overlap
        # (e.g. a bs_crash inside a cs_crash), so fail/recover count.
        self._fail_depth: Dict[int, int] = {}

    # -- placement-map surface ------------------------------------------------

    @property
    def placement(self) -> PlacementMap:
        """The live placement map (mutate via :meth:`migrate`)."""
        return self._placement

    @property
    def scheme(self) -> RedundancyConfig:
        """The redundancy scheme (r=1 replication when none was given)."""
        return self._scheme

    @property
    def width(self) -> int:
        """Copies (or coded shares) per segment."""
        return self._placement.width

    @property
    def num_block_servers(self) -> int:
        return self.fleet.config.num_block_servers

    @property
    def num_segments(self) -> int:
        return self._placement.num_segments

    def primary_of(self, segment_id: int) -> int:
        """BS holding the segment's primary copy (slot 0)."""
        return self._placement.primary_of(segment_id)

    def replicas_of(self, segment_id: int) -> Tuple[int, ...]:
        """All BSs holding the segment, slot order (primary first)."""
        return self._placement.replicas_of(segment_id)

    def primary_array(self) -> np.ndarray:
        """(num_segments,) int64 primary placements — the pass-1 input."""
        return self._placement.primary_array()

    def primaries_on(self, bs_id: int) -> Set[int]:
        """Segments whose primary copy lives on ``bs_id``."""
        self._check_bs(bs_id)
        return self._placement.primaries_on(bs_id)

    def resident_on(self, bs_id: int) -> Set[Tuple[int, int]]:
        """All (segment, slot) copies resident on ``bs_id``."""
        self._check_bs(bs_id)
        return self._placement.resident_on(bs_id)

    def storage_node_of_bs(self, bs_id: int) -> int:
        self._check_bs(bs_id)
        return bs_id // self.fleet.config.block_servers_per_node

    def _check_bs(self, bs_id: int) -> None:
        if not 0 <= bs_id < self.num_block_servers:
            raise SimulationError(f"unknown BlockServer {bs_id}")

    # -- service state --------------------------------------------------------

    def is_active(self, bs_id: int) -> bool:
        """Whether the BS is in service (not decommissioned)."""
        self._check_bs(bs_id)
        return bs_id in self._active

    @property
    def active_block_servers(self) -> "Set[int]":
        return set(self._active)

    # -- transient failures (fault injection) --------------------------------

    def fail_block_server(self, bs_id: int, timestamp: int = 0) -> None:
        """Mark a BS failed (transient — copies stay placed on it).

        Unlike :meth:`decommission`, a failure does not evacuate
        segments: production crash windows are orders of magnitude
        shorter than a re-replication, so IOs redirect or queue instead
        (the plan's :class:`~repro.faults.plan.RedirectPolicy`; with
        redundancy enabled, reads fail over to surviving copies).
        Failures nest: overlapping fault windows on the same BS are
        counted, and the BS serves again only after the last recovery.
        """
        self._check_bs(bs_id)
        self._fail_depth[bs_id] = self._fail_depth.get(bs_id, 0) + 1
        self.failure_log.append(
            FailureEvent(timestamp=timestamp, bs_id=bs_id, action="fail")
        )

    def recover_block_server(self, bs_id: int, timestamp: int = 0) -> None:
        """Undo one :meth:`fail_block_server` (raises if not failed)."""
        self._check_bs(bs_id)
        depth = self._fail_depth.get(bs_id, 0)
        if depth <= 0:
            raise SimulationError(f"BS {bs_id} is not failed")
        if depth == 1:
            self._fail_depth.pop(bs_id)
        else:
            self._fail_depth[bs_id] = depth - 1
        self.failure_log.append(
            FailureEvent(timestamp=timestamp, bs_id=bs_id, action="recover")
        )

    def is_failed(self, bs_id: int) -> bool:
        self._check_bs(bs_id)
        return self._fail_depth.get(bs_id, 0) > 0

    def is_serving(self, bs_id: int) -> bool:
        """Active (not decommissioned) and not currently failed."""
        return self.is_active(bs_id) and not self.is_failed(bs_id)

    @property
    def failed_block_servers(self) -> "Set[int]":
        return {bs for bs, depth in self._fail_depth.items() if depth > 0}

    @property
    def serving_block_servers(self) -> "Set[int]":
        return {bs for bs in self._active if self._fail_depth.get(bs, 0) <= 0}

    # -- mutation -------------------------------------------------------------

    def migrate(
        self, segment_id: int, to_bs: int, timestamp: int = 0, slot: int = 0
    ) -> None:
        """Move one copy of a segment to another BS, recording the event.

        Migrating a copy to the BS it already lives on is rejected —
        the balancer should never emit no-op migrations — as is
        migrating onto a decommissioned or currently-failed BS, or onto
        a BS already holding another copy of the same segment.
        """
        self._check_bs(to_bs)
        if to_bs not in self._active:
            raise SimulationError(f"BS {to_bs} is decommissioned")
        if self._fail_depth.get(to_bs, 0) > 0:
            raise SimulationError(f"BS {to_bs} is failed")
        from_bs = self._placement.set_slot(segment_id, slot, to_bs)
        self.migration_log.append(
            MigrationEvent(
                timestamp=timestamp,
                segment_id=int(segment_id),
                from_bs=from_bs,
                to_bs=int(to_bs),
                slot=int(slot),
            )
        )

    def decommission(
        self, bs_id: int, timestamp: int = 0
    ) -> List[MigrationEvent]:
        """Take one BS out of service, evacuating its resident copies.

        Copies drain to the remaining serving BSs, always to the one
        currently holding the fewest copies (the capacity-driven
        re-replication a production control plane performs), skipping
        any BS that already holds another copy of the same segment.
        Returns the evacuation migrations; raises if this is the last
        active BS or a copy has nowhere co-location-free to go.
        """
        self._check_bs(bs_id)
        if bs_id not in self._active:
            raise SimulationError(f"BS {bs_id} is already decommissioned")
        if len(self._active) <= 1:
            raise SimulationError("cannot decommission the last active BS")
        self._active.discard(bs_id)
        events: List[MigrationEvent] = []
        for segment, slot in sorted(self._placement.resident_on(bs_id)):
            others = set(self._placement.replicas_of(segment)) - {bs_id}
            pool = {
                bs for bs in self.serving_block_servers if bs not in others
            }
            if not pool:
                raise SimulationError(
                    f"no serving BS left to evacuate segment {segment} "
                    f"slot {slot} to without co-locating copies"
                )
            target = min(
                pool, key=lambda bs: (self._placement.resident_count(bs), bs)
            )
            self.migrate(segment, target, timestamp=timestamp, slot=slot)
            events.append(self.migration_log[-1])
        return events

    def check_invariants(self) -> None:
        """Raise if copies were lost, duplicated, or co-located.

        Validates against the placement map (works for any width), plus
        the fleet-level conservation check that every fleet segment is
        still placed.
        """
        self._placement.check_invariants()
        if self._placement.num_segments != len(self.fleet.segments):
            raise SimulationError(
                f"{len(self.fleet.segments) - self._placement.num_segments} "
                f"segments lost"
            )
        if self._placement.width != self._scheme.width:
            raise SimulationError(
                f"placement width {self._placement.width} disagrees with "
                f"redundancy scheme {self._scheme.spec}"
            )
