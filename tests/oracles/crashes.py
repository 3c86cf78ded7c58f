"""Entity-by-entity storage crash adjustments, kept as test oracles.

:func:`reference_adjust_crashes` is the per-segment loop that
:meth:`repro.faults.timeline.FaultTimeline._adjust_crashes` replaced
with row sums per down epoch.  It walks every segment on a down
BlockServer, epoch by epoch, and redirects, queues or drops its window
mass one segment at a time.  :func:`reference_replica_crashes` is the
per-replica loop of the redundant path
(:func:`repro.cluster.redundancy.expand.adjust_replica_crashes`): a
downed copy's writes drop and its reads fail over to the first
surviving copy.  The array forms must leave the same adjusted series,
the same serving-BS table and a :class:`FaultAccounting` equal to the
last float bit (``tests/faults/test_crash_adjust.py``).
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import RedirectPolicy
from repro.faults.timeline import FaultAccounting, FaultTimeline


def reference_adjust_crashes(
    timeline: FaultTimeline,
    seg_to_bs: np.ndarray,
    seg_rb: np.ndarray,
    seg_wb: np.ndarray,
    seg_ri: np.ndarray,
    seg_wi: np.ndarray,
    acct: FaultAccounting,
) -> np.ndarray:
    """Storage-domain churn: redirect / queue / drop failed-BS traffic.

    Adjusts the four series and ``acct`` in place and returns
    ``seg_bs_ep``, the serving BlockServer per (segment, epoch).
    """
    plan = timeline.plan
    t = timeline.duration_seconds
    seg_bs_ep = np.tile(
        np.asarray(seg_to_bs, dtype=np.int64)[:, None],
        (1, timeline.num_epochs),
    )
    if not timeline.bs_down_ep.any():
        return seg_bs_ep

    for epoch in range(timeline.num_epochs):
        down = timeline.bs_down_ep[:, epoch]
        if not down.any():
            continue
        lo = int(timeline.epoch_starts[epoch])
        hi = int(timeline.epoch_starts[epoch + 1])
        sl = slice(lo, hi)
        affected = np.nonzero(down[seg_to_bs])[0]
        for seg in affected:
            seg = int(seg)
            bs = int(seg_to_bs[seg])
            io_mass = float(
                seg_ri[seg, sl].sum() + seg_wi[seg, sl].sum()
            )
            byte_mass = float(
                seg_rb[seg, sl].sum() + seg_wb[seg, sl].sum()
            )
            if plan.policy is RedirectPolicy.REDIRECT:
                target = int(timeline.redirect_map[bs, epoch])
                if target >= 0:
                    seg_bs_ep[seg, epoch] = target
                    acct.redirected_ios += io_mass
                    acct.redirected_bytes += byte_mass
                    acct.retried_ios += io_mass * int(
                        timeline.redirect_attempts[bs, epoch]
                    )
                else:
                    acct.dropped_storage_ios += io_mass
                    acct.dropped_storage_bytes += byte_mass
                    for arr in (seg_rb, seg_wb, seg_ri, seg_wi):
                        arr[seg, sl] = 0.0
            else:  # QUEUE
                drain = (
                    int(timeline.bs_drain_seconds(bs)[hi - 1])
                    if hi - 1 < t
                    else -1
                )
                if drain >= 0:
                    for arr in (seg_rb, seg_wb, seg_ri, seg_wi):
                        arr[seg, drain] += float(arr[seg, sl].sum())
                        arr[seg, sl] = 0.0
                    acct.queued_ios += io_mass
                    acct.queued_bytes += byte_mass
                else:
                    acct.dropped_storage_ios += io_mass
                    acct.dropped_storage_bytes += byte_mass
                    for arr in (seg_rb, seg_wb, seg_ri, seg_wi):
                        arr[seg, sl] = 0.0
    return seg_bs_ep


def reference_replica_crashes(
    exp,
    timeline: FaultTimeline,
    rep_rb: np.ndarray,
    rep_wb: np.ndarray,
    rep_ri: np.ndarray,
    rep_wi: np.ndarray,
    acct: FaultAccounting,
) -> np.ndarray:
    """Replica-level BS-crash churn with failover.

    ``exp`` needs the expansion's ``table``, ``rep_seg`` and ``rep_bs``.
    Adjusts the four series and ``acct`` in place and returns
    ``rep_bs_ep``, the serving BlockServer per (replica, epoch).
    """
    rep_bs_ep = np.tile(exp.rep_bs[:, None], (1, timeline.num_epochs))
    for epoch in range(timeline.num_epochs):
        down_mask = timeline.bs_down_ep[:, epoch]
        if not down_mask.any():
            continue
        lo = int(timeline.epoch_starts[epoch])
        hi = int(timeline.epoch_starts[epoch + 1])
        sl = slice(lo, hi)
        for rep in np.nonzero(down_mask[exp.rep_bs])[0]:
            rep = int(rep)
            # Writes to a downed copy: deferred re-replication -> dropped.
            wi_mass = float(rep_wi[rep, sl].sum())
            wb_mass = float(rep_wb[rep, sl].sum())
            if wi_mass or wb_mass:
                acct.dropped_storage_ios += wi_mass
                acct.dropped_storage_bytes += wb_mass
                rep_wb[rep, sl] = 0.0
                rep_wi[rep, sl] = 0.0
            ri_mass = float(rep_ri[rep, sl].sum())
            rb_mass = float(rep_rb[rep, sl].sum())
            if not (ri_mass or rb_mass):
                continue
            row = exp.table[int(exp.rep_seg[rep])]
            alive = np.nonzero(~down_mask[row])[0]
            if alive.size:
                # Fail the reads over to the first surviving copy.
                rep_bs_ep[rep, epoch] = int(row[int(alive[0])])
                acct.redirected_ios += ri_mass
                acct.redirected_bytes += rb_mass
                acct.retried_ios += ri_mass
            else:
                acct.dropped_storage_ios += ri_mass
                acct.dropped_storage_bytes += rb_mass
                rep_rb[rep, sl] = 0.0
                rep_ri[rep, sl] = 0.0
    return rep_bs_ep
