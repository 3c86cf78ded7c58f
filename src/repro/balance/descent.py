"""Greedy one-step-lookahead descent over the move universe (hbal-style).

Each step evaluates *every* legal move's effect on the badness score and
applies the single best one, stopping when the best canonical gain drops
below ``min_gain``.  Candidate ranking uses an exact algebraic shortcut:
moves conserve total traffic, so each dimension's mean is invariant and
only the sum of squares changes — the new score of all candidates in a
family is computed with one vectorized expression instead of one state
copy per candidate.  The *accepted* move's gain and score are then
re-measured with a from-scratch :func:`repro.balance.score.badness`
recompute, which is what the plan records (and what
:meth:`MovePlan.apply_to` re-verifies exactly).

Determinism: ties in the estimated score break first by move family
(``qp_rebind`` < ``vd_rehome`` < ``segment_migrate``), then by lowest
entity id, then lowest destination id — the plan is a pure function of
``(state, config)``, which is what makes it restart-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.balance.moves import Move, MoveKind, apply_move
from repro.balance.plan import MovePlan, PlannedMove
from repro.balance.score import ScoreWeights, badness
from repro.balance.state import ClusterState
from repro.obs.runtime import get_telemetry
from repro.util.errors import ConfigError

#: Default stop threshold: the canonical score is in [0, 1], so 1e-6 of
#: badness is far below anything a real move achieves but still cuts the
#: long tail of float-noise "improvements".
DEFAULT_MIN_GAIN = 1e-6


def _id_set(values: "Iterable[int] | None", name: str) -> FrozenSet[int]:
    if values is None:
        return frozenset()
    out = set()
    for value in values:
        if int(value) != value or int(value) < 0:
            raise ConfigError(
                f"{name} entries must be non-negative ints, got {value!r}"
            )
        out.add(int(value))
    return frozenset(out)


@dataclass(frozen=True)
class BalanceConfig:
    """Knobs of the greedy planner.

    Exclusions mirror hbal's pinning flags: ``exclude_qps`` /
    ``exclude_vds`` / ``exclude_segments`` pin entities in place (a VD
    containing an excluded QP cannot be re-homed, and an excluded VD
    pins all of its QPs), while ``exclude_nodes`` / ``exclude_bs`` veto
    *destinations*.  The ``no_*`` switches disable whole move families,
    like hbal's ``--no-disk-moves`` / ``--no-instance-moves``.
    """

    weights: ScoreWeights = field(default_factory=ScoreWeights)
    min_gain: float = DEFAULT_MIN_GAIN
    max_moves: int = 128
    no_qp_rebinds: bool = False
    no_vd_rehomes: bool = False
    no_segment_moves: bool = False
    exclude_qps: FrozenSet[int] = frozenset()
    exclude_vds: FrozenSet[int] = frozenset()
    exclude_segments: FrozenSet[int] = frozenset()
    exclude_nodes: FrozenSet[int] = frozenset()
    exclude_bs: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if not (self.min_gain > 0 and math.isfinite(self.min_gain)):
            raise ConfigError("min_gain must be positive and finite")
        if self.max_moves < 1:
            raise ConfigError("max_moves must be >= 1")
        for name in (
            "exclude_qps",
            "exclude_vds",
            "exclude_segments",
            "exclude_nodes",
            "exclude_bs",
        ):
            object.__setattr__(self, name, _id_set(getattr(self, name), name))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "weights": self.weights.to_dict(),
            "min_gain": float(self.min_gain),
            "max_moves": int(self.max_moves),
            "no_qp_rebinds": self.no_qp_rebinds,
            "no_vd_rehomes": self.no_vd_rehomes,
            "no_segment_moves": self.no_segment_moves,
            "exclude_qps": sorted(self.exclude_qps),
            "exclude_vds": sorted(self.exclude_vds),
            "exclude_segments": sorted(self.exclude_segments),
            "exclude_nodes": sorted(self.exclude_nodes),
            "exclude_bs": sorted(self.exclude_bs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BalanceConfig":
        data = dict(payload)
        weights = data.pop("weights", None)
        kwargs: Dict[str, Any] = {}
        if weights is not None:
            kwargs["weights"] = ScoreWeights.from_dict(weights)
        known = {
            "min_gain",
            "max_moves",
            "no_qp_rebinds",
            "no_vd_rehomes",
            "no_segment_moves",
            "exclude_qps",
            "exclude_vds",
            "exclude_segments",
            "exclude_nodes",
            "exclude_bs",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown balance config keys: {sorted(unknown)}")
        for key in known & set(data):
            value = data[key]
            kwargs[key] = (
                frozenset(value) if key.startswith("exclude_") else value
            )
        return cls(**kwargs)


def _est_ncov(sumsq, total: float, size: int):
    """Normalized CoV from a (vector of) sum-of-squares, mean held fixed.

    Exactly mirrors :func:`safe_normalized_cov`'s degenerate cases; the
    non-degenerate value may differ from numpy's ``std`` in the last few
    ulps, which is why it is only used to *rank* candidates, never
    recorded in a plan.
    """
    if size <= 1 or total <= 0:
        return np.zeros_like(sumsq) if isinstance(sumsq, np.ndarray) else 0.0
    mean = total / size
    variance = np.maximum(sumsq / size - mean * mean, 0.0)
    return np.sqrt(variance) / (mean * math.sqrt(size - 1))


class _Dimension:
    """Sum/sum-of-squares bookkeeping for one utilization vector."""

    def __init__(self, vector: np.ndarray):
        self.vector = vector
        self.size = int(vector.size)
        self.total = float(vector.sum())
        self.sumsq = float(np.dot(vector, vector))
        self.est = float(_est_ncov(self.sumsq, self.total, self.size))


def _pinned_qps(state: ClusterState, config: BalanceConfig) -> np.ndarray:
    """Boolean mask of QPs that must not move (directly or via their VD)."""
    pinned = np.zeros(state.num_qps, dtype=bool)
    for qp in config.exclude_qps:
        if qp < state.num_qps:
            pinned[qp] = True
    if config.exclude_vds and state.num_qps:
        pinned |= np.isin(
            state.qp_vd, np.asarray(sorted(config.exclude_vds), dtype=np.int64)
        )
    return pinned


#: Upper bound on the (VD, node, slot) cells family 2 scores at once.
_REHOME_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class _VdGroups:
    """A state's QPs grouped by VD, for scoring whole-VD re-homes.

    Fixed for a whole descent: no move changes a QP's VD or traffic.
    """

    vds: np.ndarray        # (V,) VD ids, ascending
    vd_row: np.ndarray     # (Q,) each QP's row in ``vds``
    first_qp: np.ndarray   # (V,) each VD's lowest QP id
    totals: np.ndarray     # (V,) each VD's traffic
    scorable: np.ndarray   # rows of VDs that may move: unpinned, busy


def _vd_groups(
    state: ClusterState, config: BalanceConfig, pinned: np.ndarray
) -> _VdGroups:
    vds, vd_row = np.unique(state.qp_vd, return_inverse=True)
    order = np.argsort(vd_row, kind="stable")  # QPs by VD, ascending
    sizes = np.bincount(vd_row, minlength=vds.size)
    starts = np.cumsum(sizes) - sizes
    # Each VD's total as ``qp_traffic[qps].sum()`` sums it: VDs with
    # equally many QPs go through one (VDs, k) matrix, which numpy
    # reduces row by row exactly as it reduces each row on its own.
    totals = np.empty(vds.size)
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        cols = order[starts[rows][:, None] + np.arange(k)]
        totals[rows] = state.qp_traffic[cols].sum(axis=1)
    vd_pinned = np.bincount(vd_row, weights=pinned, minlength=vds.size) > 0
    excluded = np.isin(vds, np.fromiter(config.exclude_vds, dtype=np.int64))
    return _VdGroups(
        vds=vds,
        vd_row=vd_row,
        first_qp=order[starts],
        totals=totals,
        scorable=np.flatnonzero(~vd_pinned & ~excluded & (totals > 0)),
    )


def _best_vd_rehome(
    state: ClusterState,
    config: BalanceConfig,
    wt: _Dimension,
    node: _Dimension,
    base_est: float,
    pinned: np.ndarray,
    best_est: float,
    best_move: Optional[Move],
    groups: Optional[_VdGroups] = None,
) -> "Tuple[float, Optional[Move], int]":
    """Family 2 scored as one ``(VD, node)`` array per block of VDs.

    Every ``(VD, destination node)`` re-home gets the estimate the
    per-VD loop (``tests/oracles/descent.py``) computes, with the same
    operands in the same association order.  A row-major ``argmin``
    keeps its tie-break: lowest VD, then lowest node, and a candidate
    must beat ``best_est`` strictly.  Returns the updated best and the
    number of candidates scored.  ``groups`` (:func:`_vd_groups` of the
    state) may be carried over from an earlier step of the descent.
    """
    w = config.weights
    total_w = w.total
    per = state.workers_per_node
    num_nodes = state.num_compute_nodes
    wt_grid = wt.vector.reshape(num_nodes, per)
    dest_vetoed = np.zeros(num_nodes, dtype=bool)
    for node_id in config.exclude_nodes:
        if node_id < num_nodes:
            dest_vetoed[node_id] = True

    if groups is None:
        groups = _vd_groups(state, config, pinned)
    rows = groups.scorable
    # The loop's np.add.at per VD, in ascending QP order per cell.
    deltas = np.zeros((groups.vds.size, per))
    np.add.at(
        deltas, (groups.vd_row, state.qp_wt % per), state.qp_traffic
    )
    srcs = state.qp_node[groups.first_qp]

    evaluated = 0
    wt_sq = wt_grid**2
    node_sq = node.vector**2
    block = max(1, _REHOME_CHUNK_CELLS // (num_nodes * per))
    for lo in range(0, rows.size, block):
        sel = rows[lo:lo + block]
        src = srcs[sel]
        delta = deltas[sel]
        total_t = groups.totals[sel]
        src_wt = wt_grid[src]
        src_term = ((src_wt - delta) ** 2 - src_wt**2).sum(axis=1)
        dest_term = (
            (wt_grid[None, :, :] + delta[:, None, :]) ** 2 - wt_sq[None]
        ).sum(axis=2)
        new_wt_sumsq = (wt.sumsq + src_term)[:, None] + dest_term
        src_u = node.vector[src]
        new_node_sumsq = (
            (node.sumsq + (src_u - total_t) ** 2 - src_u**2)[:, None]
            + (node.vector[None, :] + total_t[:, None]) ** 2
            - node_sq[None, :]
        )
        est = (
            base_est
            - (w.wt / total_w)
            * (wt.est - _est_ncov(new_wt_sumsq, wt.total, wt.size))
            - (w.node / total_w)
            * (node.est - _est_ncov(new_node_sumsq, node.total, node.size))
        )
        invalid = dest_vetoed[None, :] | (
            np.arange(num_nodes)[None, :] == src[:, None]
        )
        est[invalid] = math.inf
        evaluated += int(np.count_nonzero(~invalid))
        flat = int(np.argmin(est))
        if est.flat[flat] < best_est:
            row, dest = divmod(flat, num_nodes)
            best_est = float(est.flat[flat])
            best_move = Move(
                kind=MoveKind.VD_REHOME,
                entity=int(groups.vds[sel[row]]),
                dest=dest,
            )
    return best_est, best_move, evaluated


def _best_candidate(
    state: ClusterState,
    config: BalanceConfig,
    groups: Optional[_VdGroups] = None,
) -> "Tuple[Optional[Move], int]":
    """The estimated-best legal move, and how many candidates were scored.

    ``groups`` carries the state's :func:`_vd_groups` across the steps
    of one descent.
    """
    w = config.weights
    total_w = w.total
    node = _Dimension(state.node_utilization())
    wt = _Dimension(state.wt_utilization())
    bs = _Dimension(state.bs_utilization())
    base_est = (w.node * node.est + w.wt * wt.est + w.bs * bs.est) / total_w

    best_est = math.inf
    best_move: Optional[Move] = None
    evaluated = 0
    pinned = _pinned_qps(state, config)

    # -- family 1: qp_rebind (same-node WT moves) -----------------------
    if (
        not config.no_qp_rebinds
        and state.num_qps
        and state.workers_per_node > 1
    ):
        per = state.workers_per_node
        t = state.qp_traffic
        cur = wt.vector[state.qp_wt]
        dest_wt = (
            state.qp_node[:, None] * per + np.arange(per)[None, :]
        )  # (Q, per)
        dest_u = wt.vector[dest_wt]
        d_src = (cur - t) ** 2 - cur**2
        new_sumsq = (
            wt.sumsq
            + d_src[:, None]
            + (dest_u + t[:, None]) ** 2
            - dest_u**2
        )
        est = base_est - (w.wt / total_w) * (
            wt.est - _est_ncov(new_sumsq, wt.total, wt.size)
        )
        invalid = (
            (dest_wt == state.qp_wt[:, None])
            | (t[:, None] <= 0)
            | pinned[:, None]
        )
        est[invalid] = math.inf
        evaluated += int(np.count_nonzero(~invalid))
        flat = int(np.argmin(est))
        if math.isfinite(est.flat[flat]):
            qp, slot = divmod(flat, per)
            best_est = float(est.flat[flat])
            best_move = Move(
                kind=MoveKind.QP_REBIND,
                entity=qp,
                dest=int(dest_wt[qp, slot]),
            )

    # -- family 2: vd_rehome (whole-VD node moves, slots preserved) -----
    if (
        not config.no_vd_rehomes
        and state.num_qps
        and state.num_compute_nodes > 1
    ):
        best_est, best_move, scored = _best_vd_rehome(
            state, config, wt, node, base_est, pinned, best_est, best_move,
            groups,
        )
        evaluated += scored

    # -- family 3: segment_migrate --------------------------------------
    if (
        not config.no_segment_moves
        and state.num_segments
        and state.num_block_servers > 1
    ):
        num_bs = state.num_block_servers
        t = state.seg_traffic
        cur = bs.vector[state.seg_bs]
        d_src = (cur - t) ** 2 - cur**2
        new_sumsq = (
            bs.sumsq
            + d_src[:, None]
            + (bs.vector[None, :] + t[:, None]) ** 2
            - bs.vector[None, :] ** 2
        )
        est = base_est - (w.bs / total_w) * (
            bs.est - _est_ncov(new_sumsq, bs.total, bs.size)
        )
        seg_pinned = np.zeros(state.num_segments, dtype=bool)
        for seg in config.exclude_segments:
            if seg < state.num_segments:
                seg_pinned[seg] = True
        bs_vetoed = np.zeros(num_bs, dtype=bool)
        for bs_id in config.exclude_bs:
            if bs_id < num_bs:
                bs_vetoed[bs_id] = True
        invalid = (
            (np.arange(num_bs)[None, :] == state.seg_bs[:, None])
            | (t[:, None] <= 0)
            | seg_pinned[:, None]
            | bs_vetoed[None, :]
        )
        if state.seg_replicas is not None and state.seg_replicas.shape[1] > 1:
            # Replica-aware veto: the primary may not migrate onto a BS
            # holding another copy of the same segment.
            replica_cols = state.seg_replicas[:, 1:]
            rows = np.repeat(
                np.arange(state.num_segments), replica_cols.shape[1]
            )
            invalid[rows, replica_cols.ravel()] = True
        est[invalid] = math.inf
        evaluated += int(np.count_nonzero(~invalid))
        flat = int(np.argmin(est))
        if est.flat[flat] < best_est:
            seg, dest = divmod(flat, num_bs)
            best_est = float(est.flat[flat])
            best_move = Move(
                kind=MoveKind.SEGMENT_MIGRATE, entity=seg, dest=dest
            )

    return best_move, evaluated


def plan_moves(
    state: ClusterState, config: BalanceConfig = BalanceConfig()
) -> MovePlan:
    """Greedy descent from ``state``; returns the (possibly empty) plan.

    The input state is not modified.  The plan pins the input state's
    digest, so :meth:`MovePlan.apply_to` refuses to run it elsewhere.
    """
    state.validate()
    work = state.copy()
    telemetry = get_telemetry()
    initial = badness(work, config.weights)
    score = initial
    planned = []
    with telemetry.span("balance.plan", planner="greedy") as span:
        groups = _vd_groups(work, config, _pinned_qps(work, config))
        while len(planned) < config.max_moves:
            move, evaluated = _best_candidate(work, config, groups)
            telemetry.counter("balance.candidates_evaluated").inc(evaluated)
            if move is None:
                break
            inverse = apply_move(work, move)
            new_score = badness(work, config.weights)
            gain = score - new_score
            if not gain >= config.min_gain:
                apply_move(work, inverse)
                break
            planned.append(
                PlannedMove(move=move, gain=gain, score_after=new_score)
            )
            telemetry.counter(
                "balance.moves_planned", kind=move.kind.value
            ).inc()
            telemetry.histogram("balance.move_gain_ppm").observe(
                int(round(gain * 1e6))
            )
            score = new_score
        span.set(
            moves=len(planned),
            initial_score=initial,
            final_score=score,
        )
    return MovePlan(
        planner="greedy",
        state_digest=state.digest(),
        config=config.to_dict(),
        weights=config.weights,
        initial_score=initial,
        final_score=score,
        moves=tuple(planned),
    )
