"""Per-node metric-table statistics against their dict-based oracles.

``vm_vd_qp_covs``, ``hottest_qp_shares`` and ``classify_node(s)`` slice
each node through the table's group index and sum with ``np.bincount``
in first-appearance order.  The oracles in
``tests/oracles/metric_stats.py`` mask the whole table per node and
accumulate in insertion-ordered dicts; every value must match exactly,
including which entity wins a tie and the float order of a share's sum.
"""

import pytest

from repro.balancer import (
    classify_node,
    classify_nodes,
    hottest_qp_shares,
    vm_vd_qp_covs,
)
from repro.cluster import EBSSimulator, SimulationConfig
from repro.trace.dataset import ComputeMetricTable
from repro.util.rng import RngFactory
from tests.oracles import metric_stats as oracle

DIRECTIONS = ("read", "write", "total")


def _hex(values):
    return [value.hex() for value in values]


def _assert_all_match(table, fleet):
    for direction in DIRECTIONS:
        got = vm_vd_qp_covs(table, fleet, direction)
        want = oracle.vm_vd_qp_covs(table, fleet, direction)
        assert {k: _hex(v) for k, v in got.items()} == {
            k: _hex(v) for k, v in want.items()
        }
        assert _hex(hottest_qp_shares(table, fleet, direction)) == _hex(
            oracle.hottest_qp_shares(table, fleet, direction)
        )
    for node_id in range(fleet.config.num_compute_nodes):
        assert classify_node(table, fleet, node_id) == oracle.classify_node(
            table, fleet, node_id
        )
    assert classify_nodes(table, fleet) == oracle.classify_nodes(table, fleet)


@pytest.mark.parametrize("seed", (11, 12))
def test_simulated_tables_match(small_fleet, seed):
    config = SimulationConfig(duration_seconds=60, trace_sampling_rate=0.2)
    run = EBSSimulator(small_fleet, config, RngFactory(seed)).run()
    _assert_all_match(run.metrics.compute, small_fleet)


def _row_table(rows):
    """A compute metric table from (node, vm, vd, qp, read, write) rows."""
    cols = {name: [] for name in (
        *ComputeMetricTable.INT_FIELDS, *ComputeMetricTable.FLOAT_FIELDS
    )}
    for second, (node, vm, vd, qp, read, write) in enumerate(rows):
        values = dict(
            timestamp=second, cluster_id=0, compute_node_id=node,
            user_id=0, vm_id=vm, vd_id=vd, wt_id=node * 4, qp_id=qp,
            read_bytes=read, write_bytes=write, read_iops=0.0,
            write_iops=0.0,
        )
        for name, value in values.items():
            cols[name].append(value)
    return ComputeMetricTable(**cols)


def _shared_node(fleet):
    """A node with at least two VMs, and two of them (ascending ids)."""
    for node in range(fleet.config.num_compute_nodes):
        vms = [vm for vm in fleet.vms if vm.compute_node_id == node]
        if len(vms) >= 2:
            return node, vms[0], vms[1]
    raise AssertionError("fixture fleet has no shared node")


def _vm_rows(fleet, node, vm, total):
    """One row per QP of ``vm`` with an exact equal split of ``total``."""
    qps = [qp for vd in fleet.vds_of_vm(vm.vm_id) for qp in vd.qp_ids]
    share = total / len(qps)
    return [
        (node, vm.vm_id, fleet.queue_pairs[qp].vd_id, qp, share, share)
        for qp in qps
    ]


class TestTies:
    def test_equal_vm_totals_go_to_the_first_seen_vm(self, small_fleet):
        node, low, high = _shared_node(small_fleet)
        # The higher VM id appears first: a sorted-key reduction would
        # pick the other one.
        rows = _vm_rows(small_fleet, node, high, 840.0)
        rows += _vm_rows(small_fleet, node, low, 840.0)
        _assert_all_match(_row_table(rows), small_fleet)

    def test_share_sums_in_first_seen_order(self, small_fleet):
        node = next(
            n for n in range(small_fleet.config.num_compute_nodes)
            if len(small_fleet.qps_of_node(n)) >= 3
        )
        qps = small_fleet.qps_of_node(node)[:3]
        # (2**53 + 1) + 1 rounds back to 2**53, while 1 + 1 + 2**53 is
        # exact: the highest QP id seen first must sum first, as in the
        # dict, not in sorted-id order.
        rows = [
            (node, qp.vm_id, qp.vd_id, qp.qp_id, value, value)
            for qp, value in zip(qps[::-1], (2.0 ** 53, 1.0, 1.0))
        ]
        table = _row_table(rows)
        _assert_all_match(table, small_fleet)
        share = hottest_qp_shares(table, small_fleet, "read")
        assert share == [1.0]

    def test_idle_and_empty_nodes(self, small_fleet):
        node, low, __ = _shared_node(small_fleet)
        rows = [
            (node, low.vm_id, small_fleet.vds_of_vm(low.vm_id)[0].vd_id,
             next(iter(small_fleet.vds_of_vm(low.vm_id)[0].qp_ids)),
             0.0, 0.0),
        ]
        _assert_all_match(_row_table(rows), small_fleet)
        _assert_all_match(_row_table([]), small_fleet)
