"""Reference scoring of whole-VD re-homes, kept as a test oracle.

This is the per-VD loop that :func:`repro.balance.descent._best_vd_rehome`
replaced: it scores one VD's re-homes at a time against every node.
It is easy to audit and slow; the array form must pick the same move,
with the same estimate and candidate count, on every state
(``tests/balance/test_descent_oracle.py``).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.balance.descent import BalanceConfig, _Dimension, _est_ncov
from repro.balance.moves import Move, MoveKind
from repro.balance.state import ClusterState


def reference_best_vd_rehome(
    state: ClusterState,
    config: BalanceConfig,
    wt: _Dimension,
    node: _Dimension,
    base_est: float,
    pinned: np.ndarray,
    best_est: float,
    best_move: Optional[Move],
    groups: object = None,
) -> "Tuple[float, Optional[Move], int]":
    """Family 2 of the greedy descent, one VD at a time.

    Takes and returns what :func:`repro.balance.descent._best_vd_rehome`
    does: the best estimate and move so far (a VD wins only with a
    strictly lower estimate), and the number of candidates scored.
    ``groups`` is accepted for the same call shape and not used: the
    loop regroups the QPs at every step.
    """
    w = config.weights
    total_w = w.total
    evaluated = 0
    per = state.workers_per_node
    num_nodes = state.num_compute_nodes
    wt_grid = wt.vector.reshape(num_nodes, per)
    dest_vetoed = np.zeros(num_nodes, dtype=bool)
    for node_id in config.exclude_nodes:
        if node_id < num_nodes:
            dest_vetoed[node_id] = True
    for vd in (int(v) for v in np.unique(state.qp_vd)):
        if vd in config.exclude_vds:
            continue
        qps = np.nonzero(state.qp_vd == vd)[0]
        if np.any(pinned[qps]):
            continue
        t = state.qp_traffic[qps]
        total_t = float(t.sum())
        if total_t <= 0:
            continue
        src = int(state.qp_node[qps[0]])
        delta = np.zeros(per)
        np.add.at(delta, state.qp_wt[qps] % per, t)
        src_term = float(
            ((wt_grid[src] - delta) ** 2 - wt_grid[src] ** 2).sum()
        )
        dest_term = ((wt_grid + delta[None, :]) ** 2 - wt_grid**2).sum(
            axis=1
        )
        new_wt_sumsq = wt.sumsq + src_term + dest_term
        new_node_sumsq = (
            node.sumsq
            + (node.vector[src] - total_t) ** 2
            - node.vector[src] ** 2
            + (node.vector + total_t) ** 2
            - node.vector**2
        )
        est = (
            base_est
            - (w.wt / total_w)
            * (wt.est - _est_ncov(new_wt_sumsq, wt.total, wt.size))
            - (w.node / total_w)
            * (node.est - _est_ncov(new_node_sumsq, node.total, node.size))
        )
        invalid = dest_vetoed.copy()
        invalid[src] = True
        est[invalid] = math.inf
        evaluated += int(np.count_nonzero(~invalid))
        dest = int(np.argmin(est))
        if est[dest] < best_est:
            best_est = float(est[dest])
            best_move = Move(kind=MoveKind.VD_REHOME, entity=vd, dest=dest)
    return best_est, best_move, evaluated
