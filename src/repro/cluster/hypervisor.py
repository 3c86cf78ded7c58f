"""Hypervisor worker threads and the QP-to-WT binding (§2.2, §4).

Each compute node runs a fixed set of polling worker threads (WTs).  Every
virtual-disk queue pair (QP) is statically bound to exactly one WT
("single-WT hosting"); the production load balancer assigns QPs to WTs in
round-robin attach order.  The binding is mutable so §4.3's rebinding
experiments can swap the QP sets of two WTs at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.util.errors import ConfigError, SimulationError
from repro.workload.fleet import Fleet


@dataclass(frozen=True)
class StallEvent:
    """One QP wedging or unwedging (an RDMA QP stuck mid-rebind, §4.3)."""

    timestamp: int
    qp_id: int
    action: str  # "stall" | "unstall"


class Hypervisor:
    """The WT set and QP binding of one compute node."""

    def __init__(self, fleet: Fleet, node_id: int):
        if not 0 <= node_id < fleet.config.num_compute_nodes:
            raise ConfigError(
                f"node_id {node_id} out of range "
                f"[0, {fleet.config.num_compute_nodes})"
            )
        self.node_id = node_id
        self.worker_ids: List[int] = list(fleet.wt_ids_of_node(node_id))
        self._binding: Dict[int, int] = {}
        # Stall depth per QP (fault windows may overlap, so they count).
        self._stalled: Dict[int, int] = {}
        self.stall_log: List[StallEvent] = []
        # The fleet's node index returns QPs in ascending id order already;
        # the sort is a cheap invariant guard (O(n) on sorted input).
        node_qps = fleet.qps_of_node(node_id)
        # Round-robin in attach (qp id) order, like the production balancer.
        for index, qp in enumerate(sorted(node_qps, key=lambda q: q.qp_id)):
            wt = self.worker_ids[index % len(self.worker_ids)]
            self._binding[qp.qp_id] = wt

    @property
    def num_workers(self) -> int:
        return len(self.worker_ids)

    @property
    def qp_ids(self) -> List[int]:
        return sorted(self._binding)

    def wt_of(self, qp_id: int) -> int:
        """The worker thread currently hosting ``qp_id``."""
        if qp_id not in self._binding:
            raise SimulationError(
                f"qp {qp_id} is not attached to node {self.node_id}"
            )
        return self._binding[qp_id]

    def qps_of_wt(self, wt_id: int) -> List[int]:
        """All QPs currently bound to ``wt_id`` (ascending)."""
        if wt_id not in self.worker_ids:
            raise SimulationError(
                f"wt {wt_id} does not belong to node {self.node_id}"
            )
        return sorted(
            qp for qp, wt in self._binding.items() if wt == wt_id
        )

    def rebind(self, qp_id: int, wt_id: int) -> None:
        """Move one QP to a different worker thread."""
        if wt_id not in self.worker_ids:
            raise SimulationError(
                f"wt {wt_id} does not belong to node {self.node_id}"
            )
        if qp_id not in self._binding:
            raise SimulationError(
                f"qp {qp_id} is not attached to node {self.node_id}"
            )
        self._binding[qp_id] = wt_id

    def swap_workers(self, wt_a: int, wt_b: int) -> None:
        """Exchange the full QP sets of two worker threads.

        This is the §4.3 rebinding primitive: when the hottest WT exceeds
        the trigger over the coldest, their bound QPs are swapped.
        """
        qps_a = self.qps_of_wt(wt_a)
        qps_b = self.qps_of_wt(wt_b)
        for qp in qps_a:
            self._binding[qp] = wt_b
        for qp in qps_b:
            self._binding[qp] = wt_a

    # -- fault injection: stalled QPs ---------------------------------------

    def stall_qp(self, qp_id: int, timestamp: int = 0) -> None:
        """Mark a QP stalled (stops draining; binding is unchanged).

        Stalls nest: overlapping windows count, and the QP drains again
        only after the last :meth:`unstall_qp`.
        """
        if qp_id not in self._binding:
            raise SimulationError(
                f"qp {qp_id} is not attached to node {self.node_id}"
            )
        self._stalled[qp_id] = self._stalled.get(qp_id, 0) + 1
        self.stall_log.append(
            StallEvent(timestamp=timestamp, qp_id=qp_id, action="stall")
        )

    def unstall_qp(self, qp_id: int, timestamp: int = 0) -> None:
        """Undo one :meth:`stall_qp` (raises if the QP is not stalled)."""
        if qp_id not in self._binding:
            raise SimulationError(
                f"qp {qp_id} is not attached to node {self.node_id}"
            )
        depth = self._stalled.get(qp_id, 0)
        if depth <= 0:
            raise SimulationError(f"qp {qp_id} is not stalled")
        if depth == 1:
            self._stalled.pop(qp_id)
        else:
            self._stalled[qp_id] = depth - 1
        self.stall_log.append(
            StallEvent(timestamp=timestamp, qp_id=qp_id, action="unstall")
        )

    def is_stalled(self, qp_id: int) -> bool:
        if qp_id not in self._binding:
            raise SimulationError(
                f"qp {qp_id} is not attached to node {self.node_id}"
            )
        return self._stalled.get(qp_id, 0) > 0

    @property
    def stalled_qps(self) -> "Set[int]":
        return {qp for qp, depth in self._stalled.items() if depth > 0}

    def binding_snapshot(self) -> Dict[int, int]:
        """A copy of the current QP -> WT mapping."""
        return dict(self._binding)


class HypervisorSet:
    """All hypervisors of a fleet, indexed by compute node."""

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self._nodes = [
            Hypervisor(fleet, node_id)
            for node_id in range(fleet.config.num_compute_nodes)
        ]

    def node(self, node_id: int) -> Hypervisor:
        if not 0 <= node_id < len(self._nodes):
            raise SimulationError(f"no hypervisor for node {node_id}")
        return self._nodes[node_id]

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def wt_of_qp(self, qp_id: int) -> int:
        """Global lookup: the WT hosting a QP anywhere in the fleet."""
        qp = self.fleet.queue_pairs[qp_id]
        return self.node(qp.compute_node_id).wt_of(qp_id)

    def stall_qp(self, qp_id: int, timestamp: int = 0) -> None:
        """Stall a QP anywhere in the fleet (routes to its hypervisor)."""
        qp = self.fleet.queue_pairs[qp_id]
        self.node(qp.compute_node_id).stall_qp(qp_id, timestamp=timestamp)

    def unstall_qp(self, qp_id: int, timestamp: int = 0) -> None:
        """Undo one fleet-level :meth:`stall_qp`."""
        qp = self.fleet.queue_pairs[qp_id]
        self.node(qp.compute_node_id).unstall_qp(qp_id, timestamp=timestamp)

    def binding_arrays(self) -> "Dict[int, int]":
        """Flat QP -> WT mapping over the whole fleet."""
        out: Dict[int, int] = {}
        for hypervisor in self._nodes:
            out.update(hypervisor.binding_snapshot())
        return out
