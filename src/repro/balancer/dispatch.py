"""Multi-WT hosting: the per-IO dispatch model proposed in §4.4.

The paper concludes that single-WT hosting (each QP statically bound to one
worker thread) cannot be balanced by rebinding, because hot QPs carry most
of a node's traffic and bursts are shorter than any affordable rebinding
period.  The proposed fix is a *dispatch model*: IOs are distributed across
worker threads per IO, ideally by a hardware queue (FPGA/ASIC) to avoid
software locking.

This module simulates three dispatch disciplines over a node's trace and
compares the resulting WT balance against single-WT hosting:

- ``round_robin`` — each IO goes to the next WT in turn (the hardware FIFO
  fan-out; perfect count balance, byte balance up to IO-size variance);
- ``join_shortest_queue`` — each IO goes to the WT with the least
  outstanding bytes (what a work-stealing software dispatcher approaches);
- ``hash_qp`` — IOs are hashed by QP to a WT, i.e. single-WT hosting
  re-labelled; included as the control.

It also models the dispatch *cost*: multi-WT hosting pays a per-IO
synchronization overhead (lock or hardware queue), so the comparison
reports both the balance gain and the added per-IO cost, the trade-off
§4.4 discusses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.balancer.wt import node_qp_rows, static_wt_rows
from repro.cluster.hypervisor import Hypervisor
from repro.stats.skewness import normalized_cov, normalized_cov_rows
from repro.trace.dataset import TraceDataset
from repro.util.errors import ConfigError


class DispatchPolicy(enum.Enum):
    """How IOs are spread over a node's worker threads."""

    ROUND_ROBIN = "round_robin"
    JOIN_SHORTEST_QUEUE = "join_shortest_queue"
    HASH_QP = "hash_qp"


@dataclass(frozen=True)
class DispatchConfig:
    """Cost model of the dispatcher."""

    #: Per-IO synchronization cost (microseconds) of handing an IO to a WT
    #: other than the QP's poller.  ~0.1 us for a hardware queue, ~1 us for
    #: an uncontended software lock, several us under contention.
    sync_cost_us: float = 1.0
    #: Window for the balance statistic.
    window_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.sync_cost_us < 0:
            raise ConfigError("sync_cost_us must be non-negative")
        if self.window_seconds <= 0:
            raise ConfigError("window_seconds must be positive")


@dataclass(frozen=True)
class DispatchOutcome:
    """Balance and cost of one dispatch policy on one node."""

    node_id: int
    policy: DispatchPolicy
    mean_window_cov: float     # mean normalized WT-CoV over active windows
    total_cov: float           # CoV of total per-WT bytes
    dispatched_fraction: float  # share of IOs that left their home WT
    added_cost_us_per_io: float

    @property
    def balanced(self) -> bool:
        return self.total_cov < 0.1


def simulate_dispatch(
    traces: TraceDataset,
    hypervisor: Hypervisor,
    policy: DispatchPolicy,
    config: DispatchConfig = DispatchConfig(),
) -> Optional[DispatchOutcome]:
    """Replay one node's traced IOs through a dispatch discipline.

    Returns None when the node has no traced IOs.  The replay is
    time-ordered; JSQ tracks outstanding bytes with a drain rate equal to
    the node's mean throughput per WT (a fluid approximation — adequate
    because we only need the *assignment*, not precise latencies).
    """
    rows = traces.group_rows("compute_node_id", hypervisor.node_id)
    n = rows.size
    if n == 0:
        return None
    node_timestamps = traces.timestamp[rows]
    order = np.argsort(node_timestamps, kind="stable")
    timestamps = node_timestamps[order]
    rows = rows[order]
    sizes = traces.size_bytes[rows].astype(float)
    qp_ids = traces.qp_id[rows]

    num_wts = hypervisor.num_workers
    home = static_wt_rows(hypervisor)[node_qp_rows(hypervisor, qp_ids)]

    if policy is DispatchPolicy.HASH_QP:
        assigned = home
    elif policy is DispatchPolicy.ROUND_ROBIN:
        assigned = np.arange(n, dtype=np.int64) % num_wts
    elif policy is DispatchPolicy.JOIN_SHORTEST_QUEUE:
        assigned = _join_shortest_queue(timestamps, sizes, num_wts)
    else:  # pragma: no cover - exhaustive enum
        raise ConfigError(f"unknown policy {policy}")

    dispatched = assigned != home
    windows = np.floor(timestamps / config.window_seconds).astype(np.int64)
    num_windows = int(windows.max()) + 1
    grid = np.bincount(
        windows * num_wts + assigned,
        weights=sizes,
        minlength=num_windows * num_wts,
    ).reshape(num_windows, num_wts)
    active = grid.sum(axis=1) > 0
    window_covs = normalized_cov_rows(grid[active])
    totals = grid.sum(axis=0)

    return DispatchOutcome(
        node_id=hypervisor.node_id,
        policy=policy,
        mean_window_cov=(
            float(np.mean(window_covs)) if window_covs.size else 0.0
        ),
        total_cov=normalized_cov(totals) if totals.sum() > 0 else 0.0,
        dispatched_fraction=float(dispatched.mean()),
        added_cost_us_per_io=float(dispatched.mean() * config.sync_cost_us),
    )


def _join_shortest_queue(
    timestamps: np.ndarray, sizes: np.ndarray, num_wts: int
) -> np.ndarray:
    """Assign each IO to the WT with the least outstanding bytes.

    Queues drain at the node's average byte rate divided evenly across
    WTs; the fluid model keeps the replay O(n * num_wts).  Each choice
    depends on every earlier one, so this is the one replay that walks
    IO by IO; it does so over Python floats (ties go to the first WT,
    as with ``argmin``).
    """
    duration = max(float(timestamps[-1] - timestamps[0]), 1e-9)
    drain_rate = float(sizes.sum() / duration / num_wts)  # bytes/s per WT
    # Each IO's drain, drain_rate * (now - last), in one array pass: the
    # same float64 products the loop would form one at a time.
    drains = drain_rate * np.diff(timestamps, prepend=timestamps[0])
    backlog = [0.0] * num_wts
    assigned: List[int] = []
    append = assigned.append
    for drained, size in zip(drains.tolist(), sizes.tolist()):
        if drained:
            backlog = [
                queued - drained if queued > drained else 0.0
                for queued in backlog
            ]
        target = backlog.index(min(backlog))
        append(target)
        backlog[target] += size
    return np.array(assigned, dtype=np.int64)


def compare_policies(
    traces: TraceDataset,
    hypervisors,
    config: DispatchConfig = DispatchConfig(),
) -> "Dict[DispatchPolicy, List[DispatchOutcome]]":
    """Run all three policies on every node; returns outcomes per policy."""
    out: Dict[DispatchPolicy, List[DispatchOutcome]] = {
        policy: [] for policy in DispatchPolicy
    }
    for hypervisor in hypervisors:
        for policy in DispatchPolicy:
            outcome = simulate_dispatch(traces, hypervisor, policy, config)
            if outcome is not None:
                out[policy].append(outcome)
    return out
