"""Compiling a :class:`FaultPlan` against one fleet into fast lookups.

The simulator never walks the event list at IO time.  A
:class:`FaultTimeline` compiles the plan once into:

- **epochs** — maximal intervals over which the set of crashed
  BlockServers and stalled QPs is constant (cut at every crash/stall
  boundary), with per-epoch ``(entity, epoch)`` masks;
- a per-epoch **redirect map** (``redirect`` policy): for every down BS,
  the first serving BS within ``max_redirect_attempts`` id-order hops,
  or ``-1`` when the IO must be dropped;
- per-second **drain lookups** (``queue`` policy): for every down
  second, the first second the component serves again, or ``-1`` when
  it never recovers inside the horizon;
- per-second **latency multipliers** per stack component (``degrade``
  windows) and the **migration-blackout** mask for the balancer.

:meth:`FaultTimeline.adjust` then applies the storage/compute churn to
the stacked per-entity traffic series *once*, in plain elementwise
numpy, producing :class:`FaultAdjustedInputs` that both the scalar and
the vectorized pass 1 consume verbatim — which is how the two paths
stay bit-identical under any plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.util.errors import ConfigError


@dataclass
class FaultAccounting:
    """Aggregate failure attribution over the metric-series domain.

    IO figures are per-second IOPS mass summed over affected cells (the
    same units pass 1 aggregates); byte figures likewise.  The
    conservation invariant — pinned by the property suite — is::

        delivered + dropped == offered        (per domain, to float eps)

    and no IO is ever both delivered and dropped.
    """

    # storage domain (segment -> BlockServer)
    offered_storage_ios: float = 0.0
    delivered_storage_ios: float = 0.0
    redirected_ios: float = 0.0
    retried_ios: float = 0.0          # redirect hops summed over IOs
    queued_ios: float = 0.0
    dropped_storage_ios: float = 0.0
    redirected_bytes: float = 0.0
    queued_bytes: float = 0.0
    dropped_storage_bytes: float = 0.0
    # compute domain (QP -> worker thread)
    offered_compute_ios: float = 0.0
    delivered_compute_ios: float = 0.0
    stalled_ios: float = 0.0          # IOs whose QP was stalled at issue
    dropped_compute_ios: float = 0.0

    def conservation_residual(self) -> "tuple[float, float]":
        """(storage, compute) |delivered + dropped - offered| residuals.

        Both are ~0 up to float accumulation error; the property suite
        asserts them against a relative tolerance.
        """
        storage = abs(
            self.delivered_storage_ios
            + self.dropped_storage_ios
            - self.offered_storage_ios
        )
        compute = abs(
            self.delivered_compute_ios
            + self.dropped_compute_ios
            - self.offered_compute_ios
        )
        return storage, compute

    def as_rows(self) -> List[List[object]]:
        """(metric, value) rows for report tables."""
        return [
            ["redirected_ios", round(self.redirected_ios, 1)],
            ["retried_ios", round(self.retried_ios, 1)],
            ["queued_ios", round(self.queued_ios, 1)],
            ["dropped_storage_ios", round(self.dropped_storage_ios, 1)],
            ["stalled_ios", round(self.stalled_ios, 1)],
            ["dropped_compute_ios", round(self.dropped_compute_ios, 1)],
        ]


@dataclass
class FaultAdjustedInputs:
    """Per-entity traffic series and targets after fault application.

    ``qp_*`` series are (num_qps, T); ``seg_*`` series are
    (num_segments, T).  ``seg_bs_ep[s, e]`` is the BlockServer serving
    segment ``s`` during epoch ``e`` (always a valid BS id — dropped
    traffic is zeroed in the series instead).  Both pass-1
    implementations consume these arrays read-only.
    """

    qp_rb: np.ndarray
    qp_wb: np.ndarray
    qp_ri: np.ndarray
    qp_wi: np.ndarray
    seg_rb: np.ndarray
    seg_wb: np.ndarray
    seg_ri: np.ndarray
    seg_wi: np.ndarray
    seg_bs_ep: np.ndarray       # (num_segments, num_epochs) int64
    epoch_index: np.ndarray     # (T,) int64
    accounting: FaultAccounting = field(default_factory=FaultAccounting)


class FaultTimeline:
    """A plan compiled against one fleet and simulation horizon."""

    def __init__(self, plan: FaultPlan, fleet, duration_seconds: int):
        if duration_seconds <= 0:
            raise ConfigError("duration_seconds must be positive")
        self.plan = plan
        self.fleet = fleet
        self.duration_seconds = int(duration_seconds)
        cfg = fleet.config
        self.num_bs = cfg.num_block_servers
        self.num_qps = len(fleet.queue_pairs)
        t = self.duration_seconds

        #: Events that overlap [0, T), with end clipped to T.
        self.events: List[FaultEvent] = []
        for event in plan.events:
            self._validate_target(event)
            if event.start_s >= t:
                continue
            self.events.append(event)

        # -- per-second masks ------------------------------------------------
        self._bs_down_sec = np.zeros((self.num_bs, t), dtype=bool)
        self._qp_stalled_sec = np.zeros((self.num_qps, t), dtype=bool)
        self.blackout_sec = np.zeros(t, dtype=bool)
        self._multipliers: Dict[str, np.ndarray] = {}
        boundaries = {0, t}
        for event in self.events:
            start, end = event.start_s, min(event.end_s, t)
            if event.kind is FaultKind.BS_CRASH:
                self._bs_down_sec[event.target, start:end] = True
                boundaries.update((start, end))
            elif event.kind is FaultKind.CS_CRASH:
                per_node = cfg.block_servers_per_node
                first = event.target * per_node
                self._bs_down_sec[first:first + per_node, start:end] = True
                boundaries.update((start, end))
            elif event.kind is FaultKind.QP_STALL:
                self._qp_stalled_sec[event.target, start:end] = True
                boundaries.update((start, end))
            elif event.kind is FaultKind.DEGRADE:
                targets = (
                    ("compute", "frontend", "block_server", "backend",
                     "chunk_server")
                    if event.component == "all"
                    else (event.component,)
                )
                for component in targets:
                    series = self._multipliers.setdefault(
                        component, np.ones(t)
                    )
                    series[start:end] *= event.multiplier
            else:  # MIGRATION_BLACKOUT
                self.blackout_sec[start:end] = True

        # -- epochs (constant crash/stall state within each) ------------------
        self.epoch_starts = np.array(sorted(boundaries), dtype=np.int64)
        #: epoch_index[second] -> epoch id
        self.epoch_index = (
            np.searchsorted(self.epoch_starts, np.arange(t), side="right") - 1
        ).astype(np.int64)
        self.num_epochs = len(self.epoch_starts) - 1
        starts = self.epoch_starts[:-1]
        self.bs_down_ep = self._bs_down_sec[:, starts]          # (bs, ep)
        self.qp_stalled_ep = self._qp_stalled_sec[:, starts]    # (qp, ep)

        # -- redirect map per epoch ------------------------------------------
        max_hops = min(plan.max_redirect_attempts, self.num_bs - 1)
        self.redirect_map = np.tile(
            np.arange(self.num_bs, dtype=np.int64)[:, None],
            (1, self.num_epochs),
        )
        self.redirect_attempts = np.zeros(
            (self.num_bs, self.num_epochs), dtype=np.int64
        )
        for epoch in range(self.num_epochs):
            down = self.bs_down_ep[:, epoch]
            if not down.any():
                continue
            for bs in np.nonzero(down)[0]:
                target, attempts = -1, max_hops
                for hop in range(1, max_hops + 1):
                    candidate = (bs + hop) % self.num_bs
                    if not down[candidate]:
                        target, attempts = int(candidate), hop
                        break
                self.redirect_map[bs, epoch] = target
                self.redirect_attempts[bs, epoch] = attempts

        self._bs_drain: Dict[int, np.ndarray] = {}
        self._qp_drain: Dict[int, np.ndarray] = {}

    # -- validation ----------------------------------------------------------

    def _validate_target(self, event: FaultEvent) -> None:
        cfg = self.fleet.config
        if event.kind is FaultKind.BS_CRASH and not (
            0 <= event.target < cfg.num_block_servers
        ):
            raise ConfigError(
                f"bs_crash target {event.target} out of range "
                f"[0, {cfg.num_block_servers})"
            )
        if event.kind is FaultKind.CS_CRASH and not (
            0 <= event.target < cfg.num_storage_nodes
        ):
            raise ConfigError(
                f"cs_crash target {event.target} out of range "
                f"[0, {cfg.num_storage_nodes})"
            )
        if event.kind is FaultKind.QP_STALL and not (
            0 <= event.target < self.num_qps
        ):
            raise ConfigError(
                f"qp_stall target {event.target} out of range "
                f"[0, {self.num_qps})"
            )

    # -- simple queries -------------------------------------------------------

    @property
    def has_churn(self) -> bool:
        """Whether any crash/stall affects the horizon (pass-1 relevant)."""
        return bool(self._bs_down_sec.any() or self._qp_stalled_sec.any())

    @property
    def has_degrade(self) -> bool:
        return bool(self._multipliers)

    @property
    def has_any_effect(self) -> bool:
        return bool(
            self.has_churn or self.has_degrade or self.blackout_sec.any()
        )

    def multiplier_series(self, component: str) -> Optional[np.ndarray]:
        """(T,) latency multiplier for a component; None when always 1."""
        return self._multipliers.get(component)

    def qp_stalled_at(
        self, qp_ids: np.ndarray, seconds: np.ndarray
    ) -> np.ndarray:
        """Per IO: whether its QP is stalled at its issue second."""
        return self._qp_stalled_sec[qp_ids, seconds]

    def bs_down_at(self, bs_id: int, second: int) -> bool:
        return bool(self._bs_down_sec[bs_id, second])

    def blackout_periods(self, period_seconds: int, num_periods: int) -> np.ndarray:
        """Per-period bool: any blackout second overlaps the period."""
        if period_seconds <= 0:
            raise ConfigError("period_seconds must be positive")
        out = np.zeros(num_periods, dtype=bool)
        for period in range(num_periods):
            lo = period * period_seconds
            hi = min(lo + period_seconds, self.duration_seconds)
            if lo < self.duration_seconds:
                out[period] = bool(self.blackout_sec[lo:hi].any())
        return out

    def bs_drain_seconds(self, bs_id: int) -> np.ndarray:
        """(T,) drain second per second for one BS (queue policy).

        ``drain[t]`` is ``t`` when the BS serves at ``t``; otherwise the
        first serving second after ``t`` (-1 if it never recovers).
        """
        if bs_id not in self._bs_drain:
            self._bs_drain[bs_id] = self._drain_of(self._bs_down_sec[bs_id])
        return self._bs_drain[bs_id]

    def qp_drain_seconds(self, qp_id: int) -> np.ndarray:
        """(T,) drain second per second for one QP (queue policy)."""
        if qp_id not in self._qp_drain:
            self._qp_drain[qp_id] = self._drain_of(
                self._qp_stalled_sec[qp_id]
            )
        return self._qp_drain[qp_id]

    @staticmethod
    def _drain_of(down: np.ndarray) -> np.ndarray:
        t = down.size
        drain = np.arange(t, dtype=np.int64)
        nxt = -1
        for second in range(t - 1, -1, -1):
            if not down[second]:
                nxt = second
            else:
                drain[second] = nxt
        return drain

    def failure_schedule(self) -> List["tuple[int, str, int, int]"]:
        """Chronological (second, action, kind_ordinal, target) bookkeeping.

        ``action`` is ``"fail"`` or ``"recover"``; used to replay crash
        windows onto the stateful cluster objects.
        """
        schedule: List[Tuple[int, str, int, int]] = []
        t = self.duration_seconds
        for event in self.events:
            if event.kind not in (FaultKind.BS_CRASH, FaultKind.CS_CRASH):
                continue
            schedule.append((event.start_s, "fail", 0, event.target))
            if event.end_s < t:
                schedule.append((event.end_s, "recover", 1, event.target))
        schedule.sort()
        return schedule

    # -- pass-2 (sampled trace) fault application ------------------------------

    def trace_compute_faults(
        self,
        vd,
        tr,
        frng: np.random.Generator,
        seconds: np.ndarray,
        qp_index: np.ndarray,
        is_write: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Dict[str, int]]":
        """Apply QP stalls to one VD's sampled IOs.

        Returns ``(seconds, qp_index, keep, stats)``; arrays are copied
        only when a stall actually touches this VD.  All randomness (the
        redirect-policy QP re-draw) comes from ``frng`` — a stream keyed
        by the VD id, so the base trace streams never shift and results
        stay identical for any worker partitioning.
        """
        stats = {"stall_redirected_ios": 0, "queued_ios": 0, "dropped_ios": 0}
        qp_ids = vd.first_qp_id + qp_index
        stalled = self._qp_stalled_sec[qp_ids, seconds]
        if not stalled.any():
            return seconds, qp_index, None, stats
        seconds = seconds.copy()
        qp_index = qp_index.copy()
        keep = np.ones(seconds.size, dtype=bool)
        idx = np.nonzero(stalled)[0]
        qids = np.arange(vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs)
        if self.plan.policy is RedirectPolicy.REDIRECT:
            eps = self.epoch_index[seconds[idx]]
            for epoch in np.unique(eps):  # ascending: deterministic draws
                sel = idx[eps == epoch]
                active_local = ~self.qp_stalled_ep[qids, epoch]
                if not active_local.any():
                    keep[sel] = False
                    stats["dropped_ios"] += int(sel.size)
                    continue
                active_indices = np.nonzero(active_local)[0]
                for op, weights in (
                    (False, tr.qp_read_weights),
                    (True, tr.qp_write_weights),
                ):
                    sub = sel[is_write[sel] == op]
                    if not sub.size:
                        continue
                    w = np.asarray(weights, dtype=np.float64)[active_local]
                    total = float(w.sum())
                    p = (
                        w / total
                        if total > 0.0
                        else np.full(w.size, 1.0 / w.size)
                    )
                    draws = frng.choice(w.size, size=sub.size, p=p)
                    qp_index[sub] = active_indices[draws]
                    stats["stall_redirected_ios"] += int(sub.size)
        else:  # QUEUE
            for qp in np.unique(qp_ids[idx]):
                sel = idx[qp_ids[idx] == qp]
                drains = self.qp_drain_seconds(int(qp))[seconds[sel]]
                bad = drains < 0
                seconds[sel[~bad]] = drains[~bad]
                keep[sel[bad]] = False
                stats["queued_ios"] += int((~bad).sum())
                stats["dropped_ios"] += int(bad.sum())
        return seconds, qp_index, keep, stats

    def trace_storage_faults(
        self,
        bs_ids: np.ndarray,
        seconds: np.ndarray,
        alive: "Optional[np.ndarray]" = None,
    ) -> "tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Dict[str, int]]":
        """Apply BS crashes to sampled IOs aimed at down BlockServers.

        Returns ``(bs_ids, seconds, keep, retries, stats)``.  ``alive``
        masks out IOs already dropped by the compute stage so no IO is
        double-dropped.  Redirection is deterministic (the per-epoch
        replica chain) — no randomness on the storage side.
        """
        stats = {
            "redirected_ios": 0, "retries": 0,
            "queued_ios": 0, "dropped_ios": 0,
        }
        down = self._bs_down_sec[bs_ids, seconds]
        if alive is not None:
            down &= alive
        if not down.any():
            return bs_ids, seconds, None, None, stats
        bs_ids = bs_ids.copy()
        seconds = seconds.copy()
        keep = np.ones(bs_ids.size, dtype=bool)
        retries: Optional[np.ndarray] = None
        idx = np.nonzero(down)[0]
        if self.plan.policy is RedirectPolicy.REDIRECT:
            retries = np.zeros(bs_ids.size, dtype=np.int64)
            eps = self.epoch_index[seconds[idx]]
            targets = self.redirect_map[bs_ids[idx], eps]
            attempts = self.redirect_attempts[bs_ids[idx], eps]
            ok = targets >= 0
            bs_ids[idx[ok]] = targets[ok]
            retries[idx[ok]] = attempts[ok]
            keep[idx[~ok]] = False
            stats["redirected_ios"] = int(ok.sum())
            stats["retries"] = int(attempts[ok].sum())
            stats["dropped_ios"] = int((~ok).sum())
        else:  # QUEUE
            for bs in np.unique(bs_ids[idx]):
                sel = idx[bs_ids[idx] == bs]
                drains = self.bs_drain_seconds(int(bs))[seconds[sel]]
                bad = drains < 0
                seconds[sel[~bad]] = drains[~bad]
                keep[sel[bad]] = False
                stats["queued_ios"] += int((~bad).sum())
                stats["dropped_ios"] += int(bad.sum())
        return bs_ids, seconds, keep, retries, stats

    # -- the traffic adjustment (shared by both pass-1 paths) -----------------

    def adjust(
        self,
        traffic,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        stacked_series: "Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]",
        stacked_weights: "Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]",
    ) -> FaultAdjustedInputs:
        """Apply crash/stall churn to the stacked per-entity series.

        ``stacked_series`` are the (num_vds, T) read/write byte/IOPS
        matrices; ``stacked_weights`` the per-entity weight vectors —
        exactly what :func:`repro.cluster.simulator.stack_series` /
        ``stack_weights`` produce.  The multiplication into
        per-entity series uses the same elementwise operations as the
        fast pass, so unaffected entities keep bit-identical values.
        """
        fleet = self.fleet
        read_b, write_b, read_i, write_i = stacked_series
        qp_rw, qp_ww, seg_rw, seg_ww = stacked_weights
        ent_qp_vd = np.fromiter(
            (qp.vd_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=self.num_qps,
        )

        # Per-entity base series (same operand order as the fast pass).
        qp_rb = read_b[ent_qp_vd] * qp_rw[:, None]
        qp_wb = write_b[ent_qp_vd] * qp_ww[:, None]
        qp_ri = read_i[ent_qp_vd] * qp_rw[:, None]
        qp_wi = write_i[ent_qp_vd] * qp_ww[:, None]
        ent_seg_vd = np.fromiter(
            (seg.vd_id for seg in fleet.segments), dtype=np.int64,
            count=len(fleet.segments),
        )
        seg_rb = read_b[ent_seg_vd] * seg_rw[:, None]
        seg_wb = write_b[ent_seg_vd] * seg_ww[:, None]
        seg_ri = read_i[ent_seg_vd] * seg_rw[:, None]
        seg_wi = write_i[ent_seg_vd] * seg_ww[:, None]

        acct = FaultAccounting(
            offered_compute_ios=float(qp_ri.sum() + qp_wi.sum()),
            offered_storage_ios=float(seg_ri.sum() + seg_wi.sum()),
        )

        by_vd = {tr.vd_id: tr for tr in traffic}
        self._adjust_stalls(
            by_vd, qp_rb, qp_wb, qp_ri, qp_wi,
            seg_rb, seg_wb, seg_ri, seg_wi, acct,
        )
        seg_bs_ep = self._adjust_crashes(
            seg_to_bs, seg_rb, seg_wb, seg_ri, seg_wi, acct
        )

        acct.delivered_compute_ios = float(qp_ri.sum() + qp_wi.sum())
        acct.delivered_storage_ios = float(seg_ri.sum() + seg_wi.sum())
        return FaultAdjustedInputs(
            qp_rb=qp_rb, qp_wb=qp_wb, qp_ri=qp_ri, qp_wi=qp_wi,
            seg_rb=seg_rb, seg_wb=seg_wb, seg_ri=seg_ri, seg_wi=seg_wi,
            seg_bs_ep=seg_bs_ep,
            epoch_index=self.epoch_index,
            accounting=acct,
        )

    # -- internals ------------------------------------------------------------

    def _adjust_stalls(
        self, by_vd, qp_rb, qp_wb, qp_ri, qp_wi,
        seg_rb, seg_wb, seg_ri, seg_wi, acct: FaultAccounting,
    ) -> None:
        """Compute-domain churn: redistribute / queue / drop stalled QPs."""
        fleet = self.fleet
        plan = self.plan
        for epoch in range(self.num_epochs):
            stalled = np.nonzero(self.qp_stalled_ep[:, epoch])[0]
            if not stalled.size:
                continue
            lo = int(self.epoch_starts[epoch])
            hi = int(self.epoch_starts[epoch + 1])
            sl = slice(lo, hi)
            vd_ids = sorted(
                {int(fleet.queue_pairs[qp].vd_id) for qp in stalled}
            )
            for vd_id in vd_ids:
                vd = fleet.vds[vd_id]
                tr = by_vd.get(vd_id)
                if tr is None:
                    continue
                qids = np.arange(
                    vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs
                )
                stall_local = self.qp_stalled_ep[qids, epoch]
                stalled_ids = qids[stall_local]
                active_ids = qids[~stall_local]
                stalled_mass = float(
                    qp_ri[stalled_ids, sl].sum()
                    + qp_wi[stalled_ids, sl].sum()
                )
                acct.stalled_ios += stalled_mass
                if plan.policy is RedirectPolicy.REDIRECT:
                    if active_ids.size:
                        self._redistribute_stall(
                            tr, vd, sl, stall_local,
                            qp_rb, qp_wb, qp_ri, qp_wi,
                        )
                    else:
                        # Every QP of the VD is stalled: nothing reaches
                        # the stack at all during the window.
                        acct.dropped_compute_ios += stalled_mass
                        self._drop_vd_storage(
                            vd, sl, 1.0, 1.0,
                            seg_rb, seg_wb, seg_ri, seg_wi, acct,
                        )
                        for arr in (qp_rb, qp_wb, qp_ri, qp_wi):
                            arr[stalled_ids, sl] = 0.0
                else:  # QUEUE
                    self._queue_stall(
                        tr, vd, sl, hi, stalled_ids,
                        qp_rb, qp_wb, qp_ri, qp_wi,
                        seg_rb, seg_wb, seg_ri, seg_wi, acct,
                    )

    def _redistribute_stall(
        self, tr, vd, sl, stall_local,
        qp_rb, qp_wb, qp_ri, qp_wi,
    ) -> None:
        """Redirect policy: stalled QPs' share moves to the active QPs.

        Each active QP's window series is recomputed directly as
        ``vd_series * renormalized_weight`` (the same operand order the
        base series used), so entities outside the window — and QPs of
        other VDs — keep bit-identical values.
        """
        qids = np.arange(vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs)
        active_local = ~stall_local
        num_active = int(active_local.sum())
        for weights, pairs in (
            (
                tr.qp_read_weights,
                ((qp_rb, tr.read_bytes), (qp_ri, tr.read_iops)),
            ),
            (
                tr.qp_write_weights,
                ((qp_wb, tr.write_bytes), (qp_wi, tr.write_iops)),
            ),
        ):
            active_sum = float(weights[active_local].sum())
            for index in range(vd.num_queue_pairs):
                qp = int(qids[index])
                if stall_local[index]:
                    for arr, _series in pairs:
                        arr[qp, sl] = 0.0
                    continue
                new_weight = (
                    float(weights[index]) / active_sum
                    if active_sum > 0.0
                    else 1.0 / num_active
                )
                for arr, series in pairs:
                    arr[qp, sl] = series[sl] * new_weight

    def _queue_stall(
        self, tr, vd, sl, epoch_end, stalled_ids,
        qp_rb, qp_wb, qp_ri, qp_wi,
        seg_rb, seg_wb, seg_ri, seg_wi, acct: FaultAccounting,
    ) -> None:
        """Queue policy: stalled traffic drains at the first unstalled second."""
        t = self.duration_seconds
        seg_ids = np.arange(
            vd.first_segment_id, vd.first_segment_id + vd.num_segments
        )
        for qp in stalled_ids:
            qp = int(qp)
            index = qp - vd.first_qp_id
            drain = (
                int(self.qp_drain_seconds(qp)[epoch_end - 1])
                if epoch_end - 1 < t
                else -1
            )
            held_r = float(tr.qp_read_weights[index])
            held_w = float(tr.qp_write_weights[index])
            moved_compute = 0.0
            for arr in (qp_rb, qp_wb, qp_ri, qp_wi):
                mass = float(arr[qp, sl].sum())
                if arr is qp_ri or arr is qp_wi:
                    moved_compute += mass
                if drain >= 0:
                    arr[qp, drain] += mass
                arr[qp, sl] = 0.0
            # The storage-side share held behind this QP moves (or drops)
            # with it, split over the VD's segments by their weights.
            for held, arrays in (
                (held_r, (seg_rb, seg_ri)),
                (held_w, (seg_wb, seg_wi)),
            ):
                if held <= 0.0:
                    continue
                for arr in arrays:
                    moved = arr[seg_ids, sl] * held
                    if drain >= 0:
                        arr[seg_ids, drain] += moved.sum(axis=1)
                    else:
                        if arr is seg_ri or arr is seg_wi:
                            acct.dropped_storage_ios += float(moved.sum())
                        else:
                            acct.dropped_storage_bytes += float(moved.sum())
                    arr[seg_ids, sl] = arr[seg_ids, sl] - moved
            if drain >= 0:
                acct.queued_ios += moved_compute
            else:
                acct.dropped_compute_ios += moved_compute

    def _drop_vd_storage(
        self, vd, sl, frac_r, frac_w,
        seg_rb, seg_wb, seg_ri, seg_wi, acct: FaultAccounting,
    ) -> None:
        seg_ids = np.arange(
            vd.first_segment_id, vd.first_segment_id + vd.num_segments
        )
        for frac, arrays in ((frac_r, (seg_rb, seg_ri)), (frac_w, (seg_wb, seg_wi))):
            if frac <= 0.0:
                continue
            for arr in arrays:
                dropped = arr[seg_ids, sl] * frac
                if arr is seg_ri or arr is seg_wi:
                    acct.dropped_storage_ios += float(dropped.sum())
                else:
                    acct.dropped_storage_bytes += float(dropped.sum())
                arr[seg_ids, sl] = arr[seg_ids, sl] - dropped

    def _adjust_crashes(
        self, seg_to_bs, seg_rb, seg_wb, seg_ri, seg_wi,
        acct: FaultAccounting,
    ) -> np.ndarray:
        """Storage-domain churn: redirect / queue / drop failed-BS traffic.

        Array code per down epoch over the segments of its down
        BlockServers.  A segment's window masses are row sums (each the
        same pairwise sum as the row's own ``.sum()``), and each
        accounting field adds its per-segment masses one at a time in
        ascending segment order, so the accounting and every adjusted
        series equal the per-segment loop's
        (``tests/oracles/crashes.py``) bit for bit.  Epochs still run in
        order: consecutive down epochs of one BlockServer queue into the
        same drain second, and those adds must keep their order.
        """
        seg_to_bs = np.asarray(seg_to_bs, dtype=np.int64)
        seg_bs_ep = np.tile(seg_to_bs[:, None], (1, self.num_epochs))
        if not self.bs_down_ep.any():
            return seg_bs_ep

        arrays = (seg_rb, seg_wb, seg_ri, seg_wi)
        redirect = self.plan.policy is RedirectPolicy.REDIRECT
        for epoch in range(self.num_epochs):
            down = self.bs_down_ep[:, epoch]
            if not down.any():
                continue
            lo = int(self.epoch_starts[epoch])
            hi = int(self.epoch_starts[epoch + 1])
            sl = slice(lo, hi)
            affected = np.nonzero(down[seg_to_bs])[0]
            bs = seg_to_bs[affected]
            rb, wb, ri, wi = (arr[affected, sl].sum(axis=1) for arr in arrays)
            io_mass = ri + wi
            byte_mass = rb + wb
            if redirect:
                target = self.redirect_map[bs, epoch]
                ok = target >= 0
                seg_bs_ep[affected[ok], epoch] = target[ok]
                acct.redirected_ios = running_total(
                    acct.redirected_ios, io_mass[ok]
                )
                acct.redirected_bytes = running_total(
                    acct.redirected_bytes, byte_mass[ok]
                )
                acct.retried_ios = running_total(
                    acct.retried_ios,
                    io_mass[ok] * self.redirect_attempts[bs[ok], epoch],
                )
            else:  # QUEUE: the mass drains at the BS's first serving second
                drain = np.empty(affected.size, dtype=np.int64)
                for server in np.unique(bs).tolist():
                    drain[bs == server] = self.bs_drain_seconds(server)[hi - 1]
                ok = drain >= 0
                for arr, mass in zip(arrays, (rb, wb, ri, wi)):
                    arr[affected[ok], drain[ok]] += mass[ok]
                acct.queued_ios = running_total(acct.queued_ios, io_mass[ok])
                acct.queued_bytes = running_total(
                    acct.queued_bytes, byte_mass[ok]
                )
            # Whatever is neither redirected nor queued is dropped.
            acct.dropped_storage_ios = running_total(
                acct.dropped_storage_ios, io_mass[~ok]
            )
            acct.dropped_storage_bytes = running_total(
                acct.dropped_storage_bytes, byte_mass[~ok]
            )
            # Queued mass left the window and dropped mass is lost;
            # redirected mass stays where it is, served elsewhere.
            cleared = affected[~ok] if redirect else affected
            for arr in arrays:
                arr[cleared, sl] = 0.0
        return seg_bs_ep


def running_total(total: float, masses: np.ndarray) -> float:
    """``total`` plus each of ``masses`` in turn, left to right.

    The exact float a loop of ``total += mass`` ends on: a running sum
    adds strictly in order, unlike ``masses.sum()``.
    """
    if not masses.size:
        return total
    return float(np.add.accumulate(np.concatenate(([total], masses)))[-1])
