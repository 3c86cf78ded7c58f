"""Reference per-node metric-table statistics, kept as test oracles.

These are the straightforward forms of
:func:`repro.balancer.wt.vm_vd_qp_covs`,
:func:`repro.balancer.wt.hottest_qp_shares` and
:func:`repro.balancer.wt.classify_node(s)`: a full-table boolean mask
per node, then per-row ``dict.get`` accumulation, whose insertion order
breaks ties in ``max(d, key=d.get)`` and fixes the summation order of
``top_share``.  They are easy to audit and slow; the production forms
slice through the group index and sum with ``np.bincount`` in
first-appearance order, and must match them exactly
(``tests/balancer/test_metric_stats_parity.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.balancer.wt import NodeType, _direction_column
from repro.stats.skewness import normalized_cov, top_share
from repro.trace.dataset import ComputeMetricTable
from repro.workload.fleet import Fleet


def vm_vd_qp_covs(
    table: ComputeMetricTable, fleet: Fleet, direction: str
) -> Dict[str, List[float]]:
    """Per-node masks and dict accumulation (insertion-ordered)."""
    values = _direction_column(table, direction)
    out: Dict[str, List[float]] = {"vm2qp": [], "vm2vd": [], "vd2qp": []}
    for node_id in range(fleet.config.num_compute_nodes):
        node_mask = table.compute_node_id == node_id
        if not values[node_mask].sum() > 0:
            continue
        vm_totals: Dict[int, float] = {}
        vm_ids = table.vm_id[node_mask]
        vals = values[node_mask]
        for vm, v in zip(vm_ids, vals):
            vm_totals[int(vm)] = vm_totals.get(int(vm), 0.0) + float(v)
        hottest_vm = max(vm_totals, key=vm_totals.get)

        vm_mask = node_mask & (table.vm_id == hottest_vm)
        # vm2qp: traffic split over all QPs of the hottest VM.
        qp_totals: Dict[int, float] = {}
        for qp, v in zip(table.qp_id[vm_mask], values[vm_mask]):
            qp_totals[int(qp)] = qp_totals.get(int(qp), 0.0) + float(v)
        vm_vds = fleet.vds_of_vm(hottest_vm)
        all_qps = [qp_id for vd in vm_vds for qp_id in vd.qp_ids]
        qp_vector = [qp_totals.get(qp, 0.0) for qp in all_qps]
        if len(qp_vector) > 1:
            out["vm2qp"].append(normalized_cov(qp_vector))

        # vm2vd: split over all VDs of the hottest VM (idle VDs count).
        vd_totals: Dict[int, float] = {}
        for vd, v in zip(table.vd_id[vm_mask], values[vm_mask]):
            vd_totals[int(vd)] = vd_totals.get(int(vd), 0.0) + float(v)
        vd_vector = [vd_totals.get(vd.vd_id, 0.0) for vd in vm_vds]
        if len(vd_vector) > 1:
            out["vm2vd"].append(normalized_cov(vd_vector))

        # vd2qp: split over the QPs of the hottest VD.
        if vd_totals:
            hottest_vd = max(vd_totals, key=vd_totals.get)
            vd_info = fleet.vds[hottest_vd]
            vd_qp_vector = [
                qp_totals.get(qp, 0.0) for qp in vd_info.qp_ids
            ]
            if len(vd_qp_vector) > 1:
                out["vd2qp"].append(normalized_cov(vd_qp_vector))
    return out


def hottest_qp_shares(
    table: ComputeMetricTable, fleet: Fleet, direction: str
) -> List[float]:
    """Hottest-QP share from an insertion-ordered dict per node."""
    values = _direction_column(table, direction)
    shares: List[float] = []
    for node_id in range(fleet.config.num_compute_nodes):
        node_mask = table.compute_node_id == node_id
        if not values[node_mask].sum() > 0:
            continue
        qp_totals: Dict[int, float] = {}
        for qp, v in zip(table.qp_id[node_mask], values[node_mask]):
            qp_totals[int(qp)] = qp_totals.get(int(qp), 0.0) + float(v)
        shares.append(top_share(list(qp_totals.values())))
    return shares


def classify_node(
    table: ComputeMetricTable, fleet: Fleet, node_id: int
) -> Optional[NodeType]:
    """Classify one node from a scan of every QP and a dict of VMs."""
    per_node = fleet.config.workers_per_node
    node_qps = [
        qp for qp in fleet.queue_pairs if qp.compute_node_id == node_id
    ]
    if len(node_qps) < per_node:
        return NodeType.IDLE_WTS
    node_mask = table.compute_node_id == node_id
    totals = table.read_bytes[node_mask] + table.write_bytes[node_mask]
    if not totals.sum() > 0:
        return None
    vm_totals: Dict[int, float] = {}
    for vm, v in zip(table.vm_id[node_mask], totals):
        vm_totals[int(vm)] = vm_totals.get(int(vm), 0.0) + float(v)
    hottest_vm = max(vm_totals, key=vm_totals.get)
    hottest_vm_qps = sum(
        vd.num_queue_pairs for vd in fleet.vds_of_vm(hottest_vm)
    )
    if hottest_vm_qps == 1:
        return NodeType.SINGLE_QP_HOTSPOT
    return NodeType.MULTI_QP_HOTSPOT


def classify_nodes(
    table: ComputeMetricTable, fleet: Fleet
) -> Dict[NodeType, float]:
    """Fraction of (traffic-carrying) nodes in each type, node by node."""
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
