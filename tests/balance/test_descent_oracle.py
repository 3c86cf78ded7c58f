"""Differential tests: array-scored VD re-homes vs the per-VD oracle.

:func:`repro.balance.descent._best_vd_rehome` scores every (VD, node)
re-home at once; ``tests/oracles/descent.py`` keeps the loop it
replaced.  On every state and config they must agree exactly: the same
move, the same estimate to the last bit, the same candidate count, so
whole plans and the ``balance.candidates_evaluated`` counter are
unchanged.
"""

import math

import numpy as np
import pytest

from repro.balance import BalanceConfig, ClusterState, plan_moves
from repro.balance import descent
from repro.balance.descent import _Dimension, _pinned_qps
from repro.balance.moves import Move, MoveKind
from repro.obs.runtime import Telemetry, telemetry_session

from tests.oracles.descent import reference_best_vd_rehome
from tests.strategies import cluster_states, examples

STATES = examples(cluster_states, 10, seed=21)


def _configs(state):
    vds = np.unique(state.qp_vd)
    some_vds = [int(v) for v in vds[::3]]
    return [
        BalanceConfig(),
        BalanceConfig(no_qp_rebinds=True, no_segment_moves=True),
        BalanceConfig(exclude_vds=some_vds, exclude_nodes=[0]),
        # Pinning one QP pins its whole VD.
        BalanceConfig(exclude_qps=[0, state.num_qps - 1]),
        BalanceConfig(
            exclude_nodes=list(range(1, state.num_compute_nodes, 2)),
            min_gain=1e-4,
        ),
    ]


def _family2_inputs(state, config, best_est=math.inf, best_move=None):
    w = config.weights
    node = _Dimension(state.node_utilization())
    wt = _Dimension(state.wt_utilization())
    bs = _Dimension(state.bs_utilization())
    base_est = (w.node * node.est + w.wt * wt.est + w.bs * bs.est) / w.total
    return (
        state, config, wt, node, base_est, _pinned_qps(state, config),
        best_est, best_move,
    )


def _planned(state, config, rehome):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(descent, "_best_vd_rehome", rehome)
        with telemetry_session(Telemetry(enabled=True)) as handle:
            plan = plan_moves(state, config)
    counters = {
        entry["name"]: entry for entry in handle.snapshot()["metrics"]["counters"]
    }
    return plan.to_json(), counters["balance.candidates_evaluated"]


class TestAgainstOracle:
    @pytest.mark.parametrize("state", STATES)
    def test_one_step_matches(self, state):
        for config in _configs(state):
            inputs = _family2_inputs(state, config)
            assert descent._best_vd_rehome(*inputs) == (
                reference_best_vd_rehome(*inputs)
            )

    @pytest.mark.parametrize("state", STATES[:6])
    def test_whole_plans_and_counts_match(self, state):
        for config in _configs(state):
            assert _planned(state, config, descent._best_vd_rehome) == (
                _planned(state, config, reference_best_vd_rehome)
            )

    def test_blocks_of_vds_match(self, monkeypatch):
        # Scored a few VDs at a time, the winner is still the first one.
        monkeypatch.setattr(descent, "_REHOME_CHUNK_CELLS", 1)
        for state in STATES[:4]:
            for config in _configs(state):
                inputs = _family2_inputs(state, config)
                assert descent._best_vd_rehome(*inputs) == (
                    reference_best_vd_rehome(*inputs)
                )


def _tied_state():
    """Four identical one-QP VDs on node 0, three empty nodes: every
    re-home of every VD scores exactly the same."""
    per = 2
    qp_node = np.zeros(4, dtype=np.int64)
    return ClusterState(
        workers_per_node=per,
        num_compute_nodes=4,
        num_block_servers=1,
        qp_node=qp_node,
        qp_wt=np.array([0, 1, 0, 1], dtype=np.int64),
        qp_vd=np.array([5, 6, 7, 8], dtype=np.int64),
        qp_traffic=np.full(4, 10.0),
        seg_bs=np.zeros(0, dtype=np.int64),
        seg_vd=np.zeros(0, dtype=np.int64),
        seg_traffic=np.zeros(0),
    )


class TestTies:
    def test_lowest_vd_then_lowest_node_wins(self):
        state = _tied_state()
        config = BalanceConfig(exclude_nodes=[1])
        inputs = _family2_inputs(state, config)
        got = descent._best_vd_rehome(*inputs)
        assert got == reference_best_vd_rehome(*inputs)
        assert got[1] == Move(kind=MoveKind.VD_REHOME, entity=5, dest=2)
        assert got[2] == 4 * 2  # four VDs, two legal nodes each

    def test_an_equal_earlier_best_is_kept(self):
        state = _tied_state()
        config = BalanceConfig()
        best_est, _, _ = descent._best_vd_rehome(
            *_family2_inputs(state, config)
        )
        earlier = Move(kind=MoveKind.QP_REBIND, entity=0, dest=1)
        inputs = _family2_inputs(state, config, best_est, earlier)
        got = descent._best_vd_rehome(*inputs)
        assert got == reference_best_vd_rehome(*inputs)
        assert got[:2] == (best_est, earlier)

    def test_pinned_and_idle_vds_are_not_scored(self):
        state = _tied_state()
        state.qp_traffic[3] = 0.0  # VD 8 is idle
        config = BalanceConfig(exclude_qps=[1], exclude_vds=[7])
        inputs = _family2_inputs(state, config)
        got = descent._best_vd_rehome(*inputs)
        assert got == reference_best_vd_rehome(*inputs)
        assert got[1].entity == 5
        assert got[2] == 3  # only VD 5 is scored, against nodes 1..3
