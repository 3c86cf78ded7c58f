"""The §4.3/§4.4 replays against their reference forms, bit for bit.

``simulate_rebinding`` tracks a WT permutation over the non-empty
periods of a static load matrix, ``simulate_dispatch`` runs JSQ over
Python floats and takes its window CoVs row-wise, and
``hottest_wt_series`` builds its WT matrix with one ``np.add.at``.  The
oracles in ``tests/oracles/balancer_replay.py`` do the plain per-period
and per-IO work; every outcome here must equal theirs exactly, float
bits included.
"""

import dataclasses

import numpy as np
import pytest

from repro.balancer.dispatch import (
    DispatchConfig,
    DispatchPolicy,
    simulate_dispatch,
)
from repro.balancer.wt import (
    RebindingConfig,
    hottest_wt_series,
    simulate_rebinding,
)
from repro.cluster import Hypervisor
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.stats.skewness import normalized_cov
from repro.trace.dataset import TraceDataset
from repro.util.errors import SimulationError
from repro.util.rng import RngFactory
from repro.util.units import GiB
from repro.workload import FleetConfig, build_fleet
from tests.oracles import balancer_replay as oracle

PERIODS = (0.010, 0.1, 1.0)


def _bits(outcome):
    """An outcome as a tuple whose floats compare by their exact bits."""
    if outcome is None:
        return None
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(outcome)
    ) + (type(outcome),)


def _assert_same(got, want):
    assert got == want
    assert _bits(got) == _bits(want)


@pytest.fixture(scope="module", params=(3, 7, 11))
def study(request):
    config = StudyConfig.scale(
        "small", seed=request.param, duration_seconds=120
    )
    return Study(config).build()


class TestStudyParity:
    def test_rebinding_matches_oracle_on_every_node(self, study):
        for result in study.results:
            for hypervisor in result.hypervisors:
                for period in PERIODS:
                    config = RebindingConfig(period_seconds=period)
                    _assert_same(
                        simulate_rebinding(result.traces, hypervisor, config),
                        oracle.simulate_rebinding(
                            result.traces, hypervisor, config
                        ),
                    )

    def test_dispatch_matches_oracle_on_every_node(self, study):
        for result in study.results:
            for hypervisor in result.hypervisors:
                for policy in DispatchPolicy:
                    _assert_same(
                        simulate_dispatch(result.traces, hypervisor, policy),
                        oracle.simulate_dispatch(
                            result.traces, hypervisor, policy
                        ),
                    )

    def test_hottest_series_matches_oracle_on_every_node(self, study):
        for result in study.results:
            for hypervisor in result.hypervisors:
                for period in PERIODS:
                    series, value = hottest_wt_series(
                        result.traces, hypervisor, period
                    )
                    want_series, want_value = oracle.hottest_wt_series(
                        result.traces, hypervisor, period
                    )
                    assert series.tobytes() == want_series.tobytes()
                    assert value.hex() == float(want_value).hex()


# ---------------------------------------------------------------------------
# Hand-built nodes
# ---------------------------------------------------------------------------


def _fleet(workers_per_node: int):
    config = FleetConfig(
        dc_id=0,
        num_users=2,
        num_vms=4,
        num_compute_nodes=1,
        workers_per_node=workers_per_node,
        num_storage_nodes=1,
        segment_bytes=32 * GiB,
    )
    return build_fleet(config, RngFactory(20250808))


def _traces(node_id, timestamps, qp_ids, sizes):
    n = len(timestamps)
    columns = {name: np.zeros(n) for name in TraceDataset.INT_FIELDS}
    columns.update({name: np.zeros(n) for name in TraceDataset.FLOAT_FIELDS})
    columns["trace_id"] = np.arange(n)
    columns["timestamp"] = np.asarray(timestamps, dtype=float)
    columns["qp_id"] = np.asarray(qp_ids)
    columns["size_bytes"] = np.asarray(sizes)
    columns["compute_node_id"] = np.full(n, node_id)
    return TraceDataset(**columns)


def _assert_all_match(traces, hypervisor):
    for period in PERIODS:
        config = RebindingConfig(period_seconds=period)
        _assert_same(
            simulate_rebinding(traces, hypervisor, config),
            oracle.simulate_rebinding(traces, hypervisor, config),
        )
    for policy in DispatchPolicy:
        _assert_same(
            simulate_dispatch(traces, hypervisor, policy),
            oracle.simulate_dispatch(traces, hypervisor, policy),
        )


@pytest.fixture(scope="module")
def four_wt_fleet():
    return _fleet(workers_per_node=4)


class TestHandBuiltNodes:
    def test_first_idle_wt_receives_the_hot_set(self, four_wt_fleet):
        # WT0 hosts the hot QP; WT1 hosts a QP that is idle in period 0
        # and busy in period 1; WT2 and WT3 host nothing.  In period 0
        # WT1..WT3 tie at zero and the first (WT1) takes the hot set, so
        # period 1 sees loads [10, 10, 0, 0] and swaps WT0 with WT2.
        # Any later idle WT would leave totals [10, 10, 10, 0] instead.
        hypervisor = Hypervisor(four_wt_fleet, 0)
        hot_qp, late_qp, *rest = hypervisor.qp_ids
        workers = hypervisor.worker_ids
        hypervisor.rebind(hot_qp, workers[0])
        hypervisor.rebind(late_qp, workers[1])
        for qp in rest:
            hypervisor.rebind(qp, workers[0])
        traces = _traces(
            0, [0.5, 1.5, 1.5], [hot_qp, hot_qp, late_qp], [10, 10, 10]
        )
        outcome = simulate_rebinding(
            traces, hypervisor, RebindingConfig(period_seconds=1.0)
        )
        assert outcome.rebinding_ratio == 1.0
        assert outcome.cov_after == normalized_cov([20.0, 10.0, 0.0, 0.0])
        _assert_all_match(traces, hypervisor)

    def test_one_wt_node(self):
        hypervisor = Hypervisor(_fleet(workers_per_node=1), 0)
        qps = hypervisor.qp_ids
        traces = _traces(
            0, [0.001, 0.5, 0.5, 2.0], [qps[0], qps[-1], qps[0], qps[-1]],
            [4096, 8192, 512, 65536],
        )
        outcome = simulate_rebinding(traces, hypervisor)
        assert outcome.rebinding_ratio == 0.0
        assert outcome.rebinding_gain == 1.0
        _assert_all_match(traces, hypervisor)

    def test_single_io_node_uses_the_duration_floor(self, four_wt_fleet):
        hypervisor = Hypervisor(four_wt_fleet, 0)
        traces = _traces(0, [3.25], [hypervisor.qp_ids[-1]], [4096])
        jsq = simulate_dispatch(
            traces, hypervisor, DispatchPolicy.JOIN_SHORTEST_QUEUE
        )
        assert jsq.mean_window_cov == 1.0
        _assert_all_match(traces, hypervisor)

    def test_ios_only_in_the_last_period(self, four_wt_fleet):
        hypervisor = Hypervisor(four_wt_fleet, 0)
        qps = hypervisor.qp_ids
        timestamps = [59.995, 59.996, 59.996, 59.999]
        traces = _traces(
            0, timestamps, [qps[0], qps[1], qps[0], qps[2]],
            [4096, 1 << 20, 512, 8192],
        )
        _assert_all_match(traces, hypervisor)

    def test_node_with_qps_but_no_traces(self, four_wt_fleet):
        hypervisor = Hypervisor(four_wt_fleet, 0)
        assert hypervisor.qp_ids
        traces = _traces(0, [], [], [])
        assert simulate_rebinding(traces, hypervisor) is None
        for policy in DispatchPolicy:
            assert simulate_dispatch(
                traces, hypervisor, policy, DispatchConfig()
            ) is None
        _assert_all_match(traces, hypervisor)

    def test_unknown_qp_raises(self, four_wt_fleet):
        hypervisor = Hypervisor(four_wt_fleet, 0)
        stray = max(hypervisor.qp_ids) + 1
        traces = _traces(0, [0.5], [stray], [4096])
        with pytest.raises(SimulationError, match=f"qp {stray}"):
            simulate_rebinding(traces, hypervisor)
        with pytest.raises(SimulationError, match=f"qp {stray}"):
            hottest_wt_series(traces, hypervisor)
        with pytest.raises(SimulationError, match=f"qp {stray}"):
            simulate_dispatch(traces, hypervisor, DispatchPolicy.HASH_QP)


class TestSwapWalk:
    """The memoized permutation walk against the per-period oracle."""

    @pytest.mark.parametrize("workers", (2, 3, 5, 8, 33))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_bindings_and_loads(self, workers, seed):
        # 33 WTs need more than 62 code bits: the object-dtype masks.
        rng = np.random.default_rng([workers, seed])
        hypervisor = Hypervisor(_fleet(workers_per_node=workers), 0)
        qps = hypervisor.qp_ids
        for qp in qps:
            wt = hypervisor.worker_ids[int(rng.integers(0, workers))]
            hypervisor.rebind(qp, wt)
        n = 400
        # Few distinct sizes and coarse timestamps: many equal loads, so
        # max and min sets with several members are common.
        traces = _traces(
            0,
            np.round(rng.random(n) * 3.0, 2),
            rng.choice(qps, size=n),
            rng.choice([512, 4096, 4096, 8192], size=n),
        )
        _assert_all_match(traces, hypervisor)

    def test_zero_sized_ios_leave_no_busy_period(self, four_wt_fleet):
        hypervisor = Hypervisor(four_wt_fleet, 0)
        traces = _traces(0, [0.5, 1.5], hypervisor.qp_ids[:2], [0, 0])
        outcome = simulate_rebinding(traces, hypervisor)
        assert outcome.rebinding_ratio == 0.0
        _assert_all_match(traces, hypervisor)
