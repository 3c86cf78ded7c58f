"""Hypervisor load-balancing analyses (§4).

All functions consume the simulator's datasets:

- the *metric* dataset (per QP-second aggregates) drives the WT-CoV
  distributions of Fig 2(a), the VM-VD-QP CoV decomposition of Fig 2(b),
  the hottest-QP shares of Fig 2(c), and the Type I/II/III classification;
- the *trace* dataset (per-IO, sub-second timestamps) drives the 10 ms
  rebinding simulation of Fig 2(d) and the hottest-WT burst series of
  Fig 2(e)/(f).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.hypervisor import Hypervisor
from repro.stats.skewness import normalized_cov, p2a, top_share
from repro.trace.dataset import ComputeMetricTable, TraceDataset
from repro.util.errors import ConfigError, SimulationError
from repro.workload.fleet import Fleet


def _direction_column(table: ComputeMetricTable, direction: str) -> np.ndarray:
    if direction == "read":
        return table.read_bytes
    if direction == "write":
        return table.write_bytes
    if direction == "total":
        return table.read_bytes + table.write_bytes
    raise ConfigError(
        f"direction must be 'read', 'write' or 'total', got {direction!r}"
    )


# ---------------------------------------------------------------------------
# Fig 2(a): WT-CoV at multiple time scales
# ---------------------------------------------------------------------------

def wt_cov_samples(
    table: ComputeMetricTable,
    fleet: Fleet,
    window_seconds: int,
    direction: str,
    sample_fraction: float = 1.0,
    rng: "np.random.Generator | None" = None,
) -> List[float]:
    """Normalized WT-CoV per (node, window) sample.

    For every compute node and every time window, traffic is summed per
    worker thread (idle WTs count as zeros — they are what makes Type I
    skewness visible) and the normalized CoV across the node's WTs is one
    sample.  Windows with no traffic at all are skipped.  Set
    ``sample_fraction`` < 1 to subsample windows like the paper's 10%
    draw at the 1-minute scale.
    """
    if window_seconds <= 0:
        raise ConfigError("window_seconds must be positive")
    if not 0.0 < sample_fraction <= 1.0:
        raise ConfigError("sample_fraction must be in (0, 1]")
    values = _direction_column(table, direction)
    windows = table.timestamp // window_seconds
    num_windows = int(windows.max()) + 1 if len(table) else 0
    per_node = fleet.config.workers_per_node

    covs: List[float] = []
    for node_id in range(fleet.config.num_compute_nodes):
        rows = table.group_rows("compute_node_id", node_id)
        if not rows.size:
            continue
        wt_local = table.wt_id[rows] - node_id * per_node
        grid = np.bincount(
            windows[rows] * per_node + wt_local,
            weights=values[rows],
            minlength=num_windows * per_node,
        ).reshape(num_windows, per_node)
        active = grid.sum(axis=1) > 0
        indices = np.nonzero(active)[0]
        if sample_fraction < 1.0 and indices.size:
            if rng is None:
                rng = np.random.default_rng(0)
            keep = max(1, int(round(sample_fraction * indices.size)))
            indices = rng.choice(indices, size=keep, replace=False)
        for index in indices:
            covs.append(normalized_cov(grid[index]))
    return covs


# ---------------------------------------------------------------------------
# Fig 2(b): the VM-VD-QP decomposition on the hottest VM of each node
# ---------------------------------------------------------------------------

def _first_seen_totals(
    keys: np.ndarray, values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-key sums of ``values``, keys in order of first appearance.

    The same floats, in the same key order, as adding rows one by one
    into a dict: ``np.bincount`` adds each key's values in row order
    from 0.0, and ordering by first index is the dict's insertion order
    (which breaks ``max`` ties and fixes later summation orders).
    """
    uniq, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    sums = np.bincount(inverse, weights=values, minlength=uniq.size)
    order = np.argsort(first)
    return uniq[order], sums[order]


def vm_vd_qp_covs(
    table: ComputeMetricTable, fleet: Fleet, direction: str
) -> Dict[str, List[float]]:
    """CoV_vm2qp, CoV_vm2vd and CoV_vd2qp for each node's hottest VM.

    Returns ``{"vm2qp": [...], "vm2vd": [...], "vd2qp": [...]}`` with one
    entry per compute node that carried traffic in ``direction``.
    CoV_vd2qp is measured on the hottest VD of the hottest VM.
    """
    values = _direction_column(table, direction)
    out: Dict[str, List[float]] = {"vm2qp": [], "vm2vd": [], "vd2qp": []}
    for node_id in range(fleet.config.num_compute_nodes):
        rows = table.group_rows("compute_node_id", node_id)
        vals = values[rows]
        if not vals.sum() > 0:
            continue
        vm_ids = table.vm_id[rows]
        vms, vm_sums = _first_seen_totals(vm_ids, vals)
        hottest_vm = int(vms[np.argmax(vm_sums)])

        in_vm = vm_ids == hottest_vm
        vm_rows = rows[in_vm]
        vm_vals = vals[in_vm]
        # vm2qp: traffic split over all QPs of the hottest VM.
        qps, qp_sums = _first_seen_totals(table.qp_id[vm_rows], vm_vals)
        qp_totals = dict(zip(qps.tolist(), qp_sums.tolist()))
        vm_vds = fleet.vds_of_vm(hottest_vm)
        all_qps = [qp_id for vd in vm_vds for qp_id in vd.qp_ids]
        qp_vector = [qp_totals.get(qp, 0.0) for qp in all_qps]
        if len(qp_vector) > 1:
            out["vm2qp"].append(normalized_cov(qp_vector))

        # vm2vd: split over all VDs of the hottest VM (idle VDs count).
        vds, vd_sums = _first_seen_totals(table.vd_id[vm_rows], vm_vals)
        vd_totals = dict(zip(vds.tolist(), vd_sums.tolist()))
        vd_vector = [vd_totals.get(vd.vd_id, 0.0) for vd in vm_vds]
        if len(vd_vector) > 1:
            out["vm2vd"].append(normalized_cov(vd_vector))

        # vd2qp: split over the QPs of the hottest VD.
        if vd_totals:
            hottest_vd = int(vds[np.argmax(vd_sums)])
            vd_info = fleet.vds[hottest_vd]
            vd_qp_vector = [
                qp_totals.get(qp, 0.0) for qp in vd_info.qp_ids
            ]
            if len(vd_qp_vector) > 1:
                out["vd2qp"].append(normalized_cov(vd_qp_vector))
    return out


# ---------------------------------------------------------------------------
# Fig 2(c): hottest-QP traffic share per node
# ---------------------------------------------------------------------------

def hottest_qp_shares(
    table: ComputeMetricTable, fleet: Fleet, direction: str
) -> List[float]:
    """The traffic share of the hottest QP within each compute node."""
    values = _direction_column(table, direction)
    shares: List[float] = []
    for node_id in range(fleet.config.num_compute_nodes):
        rows = table.group_rows("compute_node_id", node_id)
        vals = values[rows]
        if not vals.sum() > 0:
            continue
        __, qp_sums = _first_seen_totals(table.qp_id[rows], vals)
        shares.append(top_share(qp_sums.tolist()))
    return shares


# ---------------------------------------------------------------------------
# Type I/II/III classification (§4.2)
# ---------------------------------------------------------------------------

class NodeType(enum.Enum):
    """Root-cause category of a compute node's WT skewness."""

    IDLE_WTS = "Type I"           # fewer QPs than WTs -> idle workers
    SINGLE_QP_HOTSPOT = "Type II"  # hottest VM has exactly one QP
    MULTI_QP_HOTSPOT = "Type III"  # hottest VM has several, skewed QPs


def classify_node(
    table: ComputeMetricTable, fleet: Fleet, node_id: int
) -> Optional[NodeType]:
    """Classify one node; None if the node carried no traffic."""
    if len(fleet.qps_of_node(node_id)) < fleet.config.workers_per_node:
        return NodeType.IDLE_WTS
    rows = table.group_rows("compute_node_id", node_id)
    totals = table.read_bytes[rows] + table.write_bytes[rows]
    if not totals.sum() > 0:
        return None
    vms, vm_sums = _first_seen_totals(table.vm_id[rows], totals)
    hottest_vm = int(vms[np.argmax(vm_sums)])
    hottest_vm_qps = sum(
        vd.num_queue_pairs for vd in fleet.vds_of_vm(hottest_vm)
    )
    if hottest_vm_qps == 1:
        return NodeType.SINGLE_QP_HOTSPOT
    return NodeType.MULTI_QP_HOTSPOT


def classify_nodes(
    table: ComputeMetricTable, fleet: Fleet
) -> Dict[NodeType, float]:
    """Fraction of (traffic-carrying) nodes in each type."""
    counts: Dict[NodeType, int] = {t: 0 for t in NodeType}
    total = 0
    for node_id in range(fleet.config.num_compute_nodes):
        node_type = classify_node(table, fleet, node_id)
        if node_type is None:
            continue
        counts[node_type] += 1
        total += 1
    if total == 0:
        return {t: 0.0 for t in NodeType}
    return {t: counts[t] / total for t in NodeType}


# ---------------------------------------------------------------------------
# Fig 2(d)-(f): 10 ms rebinding simulation on the trace data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RebindingConfig:
    """Parameters of the §4.3 rebinding simulation."""

    period_seconds: float = 0.010
    trigger_ratio: float = 1.2

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise ConfigError("period_seconds must be positive")
        if self.trigger_ratio <= 1.0:
            raise ConfigError("trigger_ratio must exceed 1")


@dataclass(frozen=True)
class RebindingOutcome:
    """Result of simulating rebinding on one compute node."""

    node_id: int
    rebinding_ratio: float   # fraction of periods that triggered a swap
    rebinding_gain: float    # CoV after / CoV before (< 1 is better)
    cov_before: float
    cov_after: float

    @property
    def improved(self) -> bool:
        return self.rebinding_gain < 1.0


def node_qp_rows(
    hypervisor: Hypervisor, traced_qps: np.ndarray
) -> np.ndarray:
    """Index of each traced IO's QP in the node's ascending ``qp_ids``.

    One ``searchsorted`` over the whole trace; a QP the node does not
    host raises (the traces and the hypervisor disagree).
    """
    qp_ids = np.asarray(hypervisor.qp_ids, dtype=np.int64)
    rows = np.searchsorted(qp_ids, traced_qps)
    known = rows < qp_ids.size
    known[known] = qp_ids[rows[known]] == traced_qps[known]
    if not known.all():
        stray = int(traced_qps[np.argmin(known)])
        raise SimulationError(
            f"qp {stray} is not attached to node {hypervisor.node_id}"
        )
    return rows


def static_wt_rows(hypervisor: Hypervisor) -> np.ndarray:
    """Local WT index hosting each of the node's QPs (``qp_ids`` order)."""
    wt_index = {wt: i for i, wt in enumerate(hypervisor.worker_ids)}
    return np.array(
        [wt_index[hypervisor.wt_of(qp)] for qp in hypervisor.qp_ids],
        dtype=np.int64,
    )


def _qp_period_matrix(
    timestamps: np.ndarray,
    qp_ids: np.ndarray,
    sizes: np.ndarray,
    hypervisor: Hypervisor,
    period_seconds: float,
) -> np.ndarray:
    """(QP x period) traffic matrix of one node's traced IOs.

    Rows follow ``hypervisor.qp_ids``; IOs accumulate in trace order
    through one ``np.bincount`` over the flattened cell index, which
    adds from 0.0 in input order as ``np.add.at`` does.
    """
    num_periods = int(np.floor(timestamps.max() / period_seconds)) + 1
    num_qps = len(hypervisor.qp_ids)
    periods = np.floor(timestamps / period_seconds).astype(np.int64)
    cells = node_qp_rows(hypervisor, qp_ids) * num_periods + periods
    return np.bincount(
        cells, weights=sizes.astype(float), minlength=num_qps * num_periods
    ).reshape(num_qps, num_periods)


def _wt_period_matrix(
    timestamps: np.ndarray,
    qp_ids: np.ndarray,
    sizes: np.ndarray,
    hypervisor: Hypervisor,
    period_seconds: float,
) -> np.ndarray:
    """(WT x period) load under the node's current (static) binding.

    QP rows are added to their WT's row one by one in QP order, so every
    cell is the same float sum, in the same order, as a per-QP replay.
    """
    matrix = _qp_period_matrix(
        timestamps, qp_ids, sizes, hypervisor, period_seconds
    )
    loads = np.zeros((hypervisor.num_workers, matrix.shape[1]))
    for qp, wt in enumerate(static_wt_rows(hypervisor).tolist()):
        loads[wt] += matrix[qp]
    return loads


def _hosted_groups(
    busy: np.ndarray, trigger_ratio: float
) -> "tuple[np.ndarray, int]":
    """The static WT each WT hosts in each busy period, and the swaps.

    ``busy`` is the static (WT x period) load matrix without its empty
    periods.  A period's loads are a permutation of its static column,
    so whether it swaps (hottest > ratio x coldest) depends on the
    column alone, and which WTs swap depends only on the permutation in
    force and on which static WTs hold the column's max and min: the
    first WT, in WT order, hosting one of each.  The walk over swapping
    periods therefore looks each step up in a table keyed by
    (permutation, max set, min set), filled on first use, and records
    the permutation after every swap.  Returns ``hosted`` (WT x busy
    period, static WT indices) and the swap count.
    """
    num_wts, num_busy = busy.shape
    high = busy.max(axis=0)
    low = busy.min(axis=0)
    swapping = np.flatnonzero(high > trigger_ratio * low)
    loads = busy[:, swapping]
    # Each swapping period's max and min sets as one bitmask code: bit
    # ``num_wts + g`` if static WT g holds the max, bit g if the min.
    shift = 2 * num_wts
    bits = 1 << np.arange(num_wts, dtype=np.int64 if shift < 63 else object)
    codes = (bits @ (loads == high[swapping])) << num_wts | bits @ (
        loads == low[swapping]
    )
    perms = [tuple(range(num_wts))]  # perms[i][w]: the static WT w hosts
    perm_ids = {perms[0]: 0}
    step: Dict[int, int] = {}  # (perm id << shift) + code -> next perm id
    state = 0
    after = [0]  # permutation id in force after each swap
    for code in codes.tolist():
        key = (state << shift) + code
        nxt = step.get(key)
        if nxt is None:
            perm = list(perms[state])
            hot_set = code >> num_wts
            hot = next(w for w, g in enumerate(perm) if hot_set >> g & 1)
            cold = next(w for w, g in enumerate(perm) if code >> g & 1)
            perm[hot], perm[cold] = perm[cold], perm[hot]
            swapped = tuple(perm)
            if swapped not in perm_ids:
                perm_ids[swapped] = len(perms)
                perms.append(swapped)
            nxt = step[key] = perm_ids[swapped]
        state = nxt
        after.append(state)
    # Busy period k runs under the permutation left by the swaps before k.
    in_force = np.array(after)[np.searchsorted(swapping, np.arange(num_busy))]
    return np.array(perms)[in_force].T, int(swapping.size)


def simulate_rebinding(
    traces: TraceDataset,
    hypervisor: Hypervisor,
    config: RebindingConfig = RebindingConfig(),
) -> Optional[RebindingOutcome]:
    """Replay one node's traces through the periodic rebinding balancer.

    Every ``period_seconds``, if the hottest WT carries more than
    ``trigger_ratio`` times the coldest WT's traffic, the two WTs swap
    their QP sets (the FinNVMe/LPNS-style rebinding the paper evaluates;
    the rule is :func:`~repro.balance.policies.wt_swap_decision`).

    A swap exchanges two WTs' whole QP sets, so at every period WT ``w``
    carries the static load of some WT ``perm[w]``: the replay builds
    the static (WT x period) load matrix once and tracks only that
    permutation (:func:`_hosted_groups`).  Periods with no traffic add
    nothing and never fire a swap, so only the non-empty ones count;
    ties between equally loaded WTs go to the first index, as
    ``argmax``/``argmin`` break them.  Each WT's dynamic total is one
    ``np.cumsum`` along its hosted loads, the same running sum as adding
    period by period.  The outcome is bit-identical to re-summing every
    period's loads from the live binding.

    Returns None when the node has no traced IOs.  Note the paper's prose
    defines gain as before/after but reads "gain of 1%" as a large
    improvement; we use after/before so that < 1 consistently means the
    rebinding helped (the figure's semantics).
    """
    rows = traces.group_rows("compute_node_id", hypervisor.node_id)
    if rows.size == 0:
        return None
    static = _wt_period_matrix(
        traces.timestamp[rows],
        traces.qp_id[rows],
        traces.size_bytes[rows],
        hypervisor,
        config.period_seconds,
    )
    num_wts, num_periods = static.shape
    static_totals = np.cumsum(static, axis=1)[:, -1]

    busy = static[:, np.flatnonzero(static.any(axis=0))]
    hosted, swaps = _hosted_groups(busy, config.trigger_ratio)
    dynamic = busy[hosted, np.arange(busy.shape[1])]
    dynamic_totals = np.zeros(num_wts)
    if dynamic.size:
        dynamic_totals = np.cumsum(dynamic, axis=1)[:, -1]

    cov_before = normalized_cov(static_totals) if static_totals.sum() else 0.0
    cov_after = (
        normalized_cov(dynamic_totals) if dynamic_totals.any() else 0.0
    )
    if cov_before == 0.0:
        gain = 1.0
    else:
        gain = cov_after / cov_before
    return RebindingOutcome(
        node_id=hypervisor.node_id,
        rebinding_ratio=swaps / num_periods,
        rebinding_gain=gain,
        cov_before=cov_before,
        cov_after=cov_after,
    )


def hottest_wt_series(
    traces: TraceDataset,
    hypervisor: Hypervisor,
    period_seconds: float = 0.010,
) -> "tuple[np.ndarray, float]":
    """The hottest WT's traffic series at ``period_seconds`` and its P2A.

    This is Fig 2(e)/(f): the node whose hottest WT has the highest P2A is
    the "node-b" (bursty) exemplar; the lowest is "node-r".
    """
    if period_seconds <= 0:
        raise ConfigError("period_seconds must be positive")
    rows = traces.group_rows("compute_node_id", hypervisor.node_id)
    if rows.size == 0:
        return np.zeros(1), 0.0
    wt_series = _wt_period_matrix(
        traces.timestamp[rows],
        traces.qp_id[rows],
        traces.size_bytes[rows],
        hypervisor,
        period_seconds,
    )
    hottest = int(np.argmax(wt_series.sum(axis=1)))
    series = wt_series[hottest]
    return series, p2a(series) if series.sum() else 0.0
