"""Differential tests: draw + resolve pass 2 vs the per-VD oracle.

The contract being pinned: whatever the redundancy scheme, read policy,
or fault plan, the trace dataset a run builds from its
per-VD draws and one vectorized resolve is bit-identical (dtypes
included) to the per-VD loop kept in ``tests/oracles/pass2.py``, and
so are the fault statistics of the sampled IOs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.simulator import EBSSimulator
from repro.cluster.storage import StorageCluster
from repro.faults.generate import PlanShape, random_fault_plan
from repro.faults.outcome import empty_trace_stats
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.util.rng import RngFactory
from repro.workload.fleet import build_fleet
from tests.cluster.test_simulator_fastpath import (
    GOLDEN_FLEET,
    GOLDEN_SIM,
    _tables_equal,
)
from tests.oracles.pass2 import reference_pass2

DEGRADE = FaultEvent(
    kind=FaultKind.DEGRADE, start_s=5, end_s=25, component="all",
    multiplier=3.0,
)
CRASH = FaultEvent(kind=FaultKind.BS_CRASH, start_s=15, end_s=30, target=0)
STALL = FaultEvent(kind=FaultKind.QP_STALL, start_s=10, end_s=35, target=2)


def _plan(policy, *events):
    return FaultPlan(events=events, policy=policy)


def _random_plan(seed, policy):
    fleet = build_fleet(GOLDEN_FLEET, RngFactory(11))
    shape = PlanShape.of_fleet(fleet, GOLDEN_SIM.duration_seconds)
    return random_fault_plan(
        seed, shape, num_events=5, policy=policy, label="pass2-oracle"
    )


def _check(redundancy=None, read_policy="primary", plan=None):
    rngs = RngFactory(11)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    config = replace(
        GOLDEN_SIM, redundancy=redundancy, read_policy=read_policy
    )
    simulator = EBSSimulator(fleet, config, rngs, fault_plan=plan)
    result = simulator.run()
    qp_to_wt, seg_to_bs = simulator.bindings(
        HypervisorSet(fleet),
        StorageCluster(fleet, redundancy=config.redundancy_config()),
    )
    want, want_stats = reference_pass2(
        simulator, result.traffic, qp_to_wt, seg_to_bs,
        result.wt_load_bps, result.bs_load_bps,
    )
    assert _tables_equal(result.traces, want)
    assert result.traces.sampling_rate == want.sampling_rate
    if result.faults is not None:
        assert result.faults.trace_stats == (
            want_stats if want_stats is not None else empty_trace_stats()
        )
    return result


class TestSingleCopy:
    def test_fault_free(self):
        _check()

    @pytest.mark.parametrize(
        "policy", [RedirectPolicy.QUEUE, RedirectPolicy.REDIRECT]
    )
    def test_crash_stall_and_degrade(self, policy):
        result = _check(plan=_plan(policy, CRASH, STALL, DEGRADE))
        stats = result.faults.trace_stats
        assert stats["degraded_ios"] > 0
        moved = "queued_ios" if policy is RedirectPolicy.QUEUE else (
            "stall_redirected_ios"
        )
        assert stats[moved] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plans(self, seed):
        policy = [RedirectPolicy.QUEUE, RedirectPolicy.REDIRECT][seed % 2]
        _check(plan=_random_plan(seed, policy))


class TestRedundancy:
    @pytest.mark.parametrize(
        "spec, read_policy",
        [
            ("r=2", "least_loaded"),
            ("r=3", "power_of_two"),
            ("ec=2+1", "water_filling"),
        ],
    )
    def test_fault_free(self, spec, read_policy):
        _check(spec, read_policy)

    @pytest.mark.parametrize(
        "policy", [RedirectPolicy.QUEUE, RedirectPolicy.REDIRECT]
    )
    def test_crash_with_degrade(self, policy):
        result = _check(
            "ec=2+1", "least_loaded", _plan(policy, CRASH, DEGRADE)
        )
        assert result.faults.trace_stats["redirected_ios"] > 0


def test_quiet_fleet_has_typed_empty_columns():
    # Nothing sampled anywhere: the resolve step has no IOs to act on.
    rngs = RngFactory(11)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    config = replace(GOLDEN_SIM, trace_sampling_rate=1e-12)
    result = EBSSimulator(fleet, config, rngs).run()
    assert len(result.traces) == 0
    assert result.traces.op.dtype == np.int64
    assert result.draws.seconds.size == 0
