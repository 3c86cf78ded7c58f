"""Replica expansion: the per-copy entity view both pass-1 paths consume.

With redundancy active, the storage half of pass 1 aggregates over
*replicas* (physical copies / coded shares) instead of segments.  The
expansion flattens the ``(num_segments, width)`` placement table into
``R = num_segments * width`` replica entities in a fixed global order —
``(segment ascending, slot ascending)``, which, because each VD's
segments are contiguous and ascending, is also ``(vd, segment, slot)``
order — and precomputes the per-replica read/write weights:

- ``rep_rw[rep] = seg_rw[seg] * W[seg, slot]`` — the read policy's
  steering weight applied to the segment's intra-VD read weight;
- ``rep_ww[rep] = seg_ww[seg] * write_scale`` — every copy pays the
  write fan-out cost (full copy for replication, ``1/k`` per EC share).

Both the vectorized and the reference pass-1 read these exact vectors,
which is what makes them bit-identical under redundancy.

This module also builds the fault-adjusted replica inputs for
BS-crash plans: reads on a downed copy *fail over* to the first
surviving copy of their segment (instead of queueing), while writes on
a downed copy are dropped (deferred re-replication), with the same
conservation-checked accounting discipline as
:meth:`FaultTimeline.adjust`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.util.errors import ConfigError
from repro.faults.plan import FaultKind
from repro.faults.timeline import (
    FaultAccounting,
    FaultAdjustedInputs,
    running_total,
)
from repro.cluster.redundancy.config import RedundancyConfig
from repro.cluster.redundancy.policies import assign_read_weights


@dataclass
class ReplicaExpansion:
    """Flattened per-replica view of one DC's placement + read policy."""

    config: RedundancyConfig
    policy: str
    table: np.ndarray      # (S, W) int64 replica placement
    weights: np.ndarray    # (S, W) read-steering weights, rows sum to 1
    read_cum: np.ndarray   # (S, W) row-wise cumsum of weights (pass-2 draws)
    rep_seg: np.ndarray    # (R,) segment id of each replica
    rep_slot: np.ndarray   # (R,) slot of each replica
    rep_vd: np.ndarray     # (R,) owning VD
    rep_vm: np.ndarray     # (R,) owning VM
    rep_user: np.ndarray   # (R,) owning user
    rep_bs: np.ndarray     # (R,) resident BlockServer
    rep_rw: np.ndarray     # (R,) read weight (policy-steered)
    rep_ww: np.ndarray     # (R,) write weight (fan-out cost applied)

    @property
    def width(self) -> int:
        return int(self.table.shape[1])

    @property
    def num_replicas(self) -> int:
        return int(self.rep_seg.size)


def build_expansion(
    config: RedundancyConfig,
    policy: str,
    table: np.ndarray,
    seg_vd: np.ndarray,
    seg_vm: np.ndarray,
    seg_user: np.ndarray,
    seg_rw: np.ndarray,
    seg_ww: np.ndarray,
    vd_read_total: np.ndarray,
    vd_write_total: np.ndarray,
    num_block_servers: int,
    rng: Optional[np.random.Generator] = None,
) -> ReplicaExpansion:
    """Expand placement + policy into the flat replica arrays.

    ``vd_read_total`` / ``vd_write_total`` are the horizon byte totals
    per VD (the offered mass the load-aware policies balance against).
    """
    table = np.asarray(table, dtype=np.int64)
    num_segments, width = table.shape
    seg_rw = np.asarray(seg_rw, dtype=np.float64)
    seg_ww = np.asarray(seg_ww, dtype=np.float64)
    seg_read_mass = vd_read_total[seg_vd] * seg_rw
    seg_write_mass = (
        vd_write_total[seg_vd] * seg_ww * config.write_weight_scale
    )
    weights = assign_read_weights(
        policy,
        config,
        table,
        seg_read_mass,
        seg_write_mass,
        num_block_servers,
        rng=rng,
    )
    rep_seg = np.repeat(np.arange(num_segments, dtype=np.int64), width)
    rep_slot = np.tile(np.arange(width, dtype=np.int64), num_segments)
    return ReplicaExpansion(
        config=config,
        policy=policy,
        table=table,
        weights=weights,
        read_cum=np.cumsum(weights, axis=1),
        rep_seg=rep_seg,
        rep_slot=rep_slot,
        rep_vd=np.asarray(seg_vd, dtype=np.int64)[rep_seg],
        rep_vm=np.asarray(seg_vm, dtype=np.int64)[rep_seg],
        rep_user=np.asarray(seg_user, dtype=np.int64)[rep_seg],
        rep_bs=table.ravel().copy(),
        rep_rw=(seg_rw[:, None] * weights).ravel(),
        rep_ww=np.repeat(seg_ww * config.write_weight_scale, width),
    )


def check_plan_compatible(timeline) -> None:
    """Redundancy supports crash churn only; QP stalls are compute-side.

    A stalled QP redistributes load across the *compute* plane, which
    is orthogonal to replica steering but shares the per-entity series
    arrays; combining the two adjustment passes is future work, so the
    combination is rejected loudly rather than silently mis-modelled.
    """
    for event in timeline.events:
        if event.kind is FaultKind.QP_STALL:
            raise ConfigError(
                "qp_stall fault events are not supported together with "
                "redundancy (r>1 / ec); use crash/degrade events or run "
                "with redundancy disabled"
            )


def redundancy_fault_inputs(
    exp: ReplicaExpansion,
    timeline,
    stacked_series: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    stacked_weights: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> FaultAdjustedInputs:
    """Apply BS-crash churn to the replica-level series, with failover.

    Mirrors :meth:`FaultTimeline.adjust` but over replicas: per crash
    epoch, a downed copy's *reads* fail over to the first surviving
    copy of the segment (counted as ``redirected``, one retry hop); its
    *writes* are dropped (deferred re-replication).  If every copy is
    down the reads are dropped too.  The returned object uses the
    ``seg_*`` field names for the replica arrays — both pass-1 adjusted
    branches are shape-generic over the entity axis.
    """
    check_plan_compatible(timeline)
    fleet = timeline.fleet
    read_b, write_b, read_i, write_i = stacked_series
    qp_rw, qp_ww, _seg_rw, _seg_ww = stacked_weights
    ent_qp_vd = np.fromiter(
        (qp.vd_id for qp in fleet.queue_pairs), dtype=np.int64,
        count=timeline.num_qps,
    )

    # Per-entity base series (same operand order as the fast pass).
    qp_rb = read_b[ent_qp_vd] * qp_rw[:, None]
    qp_wb = write_b[ent_qp_vd] * qp_ww[:, None]
    qp_ri = read_i[ent_qp_vd] * qp_rw[:, None]
    qp_wi = write_i[ent_qp_vd] * qp_ww[:, None]
    rep_rb = read_b[exp.rep_vd] * exp.rep_rw[:, None]
    rep_wb = write_b[exp.rep_vd] * exp.rep_ww[:, None]
    rep_ri = read_i[exp.rep_vd] * exp.rep_rw[:, None]
    rep_wi = write_i[exp.rep_vd] * exp.rep_ww[:, None]

    acct = FaultAccounting(
        offered_compute_ios=float(qp_ri.sum() + qp_wi.sum()),
        offered_storage_ios=float(rep_ri.sum() + rep_wi.sum()),
    )

    rep_bs_ep = adjust_replica_crashes(
        exp, timeline, rep_rb, rep_wb, rep_ri, rep_wi, acct
    )

    acct.delivered_compute_ios = float(qp_ri.sum() + qp_wi.sum())
    acct.delivered_storage_ios = float(rep_ri.sum() + rep_wi.sum())
    return FaultAdjustedInputs(
        qp_rb=qp_rb, qp_wb=qp_wb, qp_ri=qp_ri, qp_wi=qp_wi,
        seg_rb=rep_rb, seg_wb=rep_wb, seg_ri=rep_ri, seg_wi=rep_wi,
        seg_bs_ep=rep_bs_ep,
        epoch_index=timeline.epoch_index,
        accounting=acct,
    )


def adjust_replica_crashes(
    exp: ReplicaExpansion,
    timeline,
    rep_rb: np.ndarray,
    rep_wb: np.ndarray,
    rep_ri: np.ndarray,
    rep_wi: np.ndarray,
    acct: FaultAccounting,
) -> np.ndarray:
    """BS-crash churn on the replica series, in place; returns
    ``rep_bs_ep``, the serving BlockServer per (replica, epoch).

    Per down epoch, over the replicas on a down BlockServer: a copy's
    writes are dropped, and its reads fail over to the first surviving
    copy of its segment (one retry hop), or are dropped when every copy
    is down.  Array code per epoch, as
    :meth:`FaultTimeline._adjust_crashes`: row sums for the window
    masses, and each accounting field adds its per-replica masses one
    at a time in replica order (a dropped copy adds its writes, then
    its reads), so everything equals the per-replica loop
    (``tests/oracles/crashes.py``) bit for bit.
    """
    rep_bs_ep = np.tile(exp.rep_bs[:, None], (1, timeline.num_epochs))
    for epoch in range(timeline.num_epochs):
        down_mask = timeline.bs_down_ep[:, epoch]
        if not down_mask.any():
            continue
        lo = int(timeline.epoch_starts[epoch])
        hi = int(timeline.epoch_starts[epoch + 1])
        sl = slice(lo, hi)
        reps = np.nonzero(down_mask[exp.rep_bs])[0]
        wb, wi, rb, ri = (
            arr[reps, sl].sum(axis=1) for arr in (rep_wb, rep_wi, rep_rb, rep_ri)
        )
        rows = exp.table[exp.rep_seg[reps]]
        alive = ~down_mask[rows]
        # The loop skips a copy whose writes (reads) are all zero.
        wrote = (wi != 0.0) | (wb != 0.0)
        read = (ri != 0.0) | (rb != 0.0)
        failover = read & alive.any(axis=1)
        lost = read & ~failover
        rep_bs_ep[reps[failover], epoch] = rows[
            failover, np.argmax(alive[failover], axis=1)
        ]
        # A copy drops its writes, then (if lost) its reads: interleave
        # them.  A skipped mass is zero and leaves the total unchanged.
        acct.dropped_storage_ios = running_total(
            acct.dropped_storage_ios,
            np.column_stack((wi, np.where(lost, ri, 0.0))).ravel(),
        )
        acct.dropped_storage_bytes = running_total(
            acct.dropped_storage_bytes,
            np.column_stack((wb, np.where(lost, rb, 0.0))).ravel(),
        )
        acct.redirected_ios = running_total(acct.redirected_ios, ri[failover])
        acct.redirected_bytes = running_total(
            acct.redirected_bytes, rb[failover]
        )
        acct.retried_ios = running_total(acct.retried_ios, ri[failover])
        for arr in (rep_wb, rep_wi):
            arr[reps[wrote], sl] = 0.0
        for arr in (rep_rb, rep_ri):
            arr[reps[lost], sl] = 0.0
    return rep_bs_ep
