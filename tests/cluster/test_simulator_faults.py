"""Differential tests: scalar vs vectorized simulation under fault plans.

The contract being pinned: for ANY fault plan, the vectorized pass 1
produces load grids and metric tables bit-identical to the scalar oracle
(``tests/oracles/pass1.py``) — dtypes included — on the same
fault-adjusted inputs.  A no-fault plan must reproduce the
fault-free golden digest exactly.
"""

import hashlib
import numpy as np
import pytest

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.cluster.storage import StorageCluster
from repro.faults.generate import PlanShape, random_fault_plan
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet
from repro.workload.generator import WorkloadGenerator

from tests.cluster.test_simulator_fastpath import (
    GOLDEN_DIGEST,
    GOLDEN_FLEET,
    GOLDEN_SIM,
    _result_digest,
    _tables_equal,
)
from tests.oracles.pass1 import reference_pass1

#: The issue's acceptance bar: at least 25 seeded plans in the harness.
NUM_DIFFERENTIAL_PLANS = 25


def _build_fleet():
    return build_fleet(GOLDEN_FLEET, RngFactory(11))


def _shape() -> PlanShape:
    return PlanShape.of_fleet(_build_fleet(), GOLDEN_SIM.duration_seconds)


def _run(plan, seed: int = 11):
    rngs = RngFactory(seed)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    simulator = EBSSimulator(fleet, GOLDEN_SIM, rngs, fault_plan=plan)
    return simulator.run()


def _assert_pass1_matches_oracle(plan, seed: int = 11):
    """Oracle vs vectorized pass 1 on the inputs :meth:`run` would use,
    sharing one set of fault-adjusted series."""
    rngs = RngFactory(seed)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    simulator = EBSSimulator(fleet, GOLDEN_SIM, rngs, fault_plan=plan)
    traffic = WorkloadGenerator(
        fleet, GOLDEN_SIM.duration_seconds, rngs,
        diurnal_amplitude=GOLDEN_SIM.diurnal_amplitude,
    ).generate_all()
    qp_to_wt, seg_to_bs = simulator.bindings(
        HypervisorSet(fleet), StorageCluster(fleet)
    )
    adjusted = simulator.fault_adjusted_inputs(traffic, qp_to_wt, seg_to_bs)
    ref = reference_pass1(simulator, traffic, qp_to_wt, seg_to_bs, adjusted)
    fast = simulator.run_pass1(
        traffic, qp_to_wt, seg_to_bs, adjusted=adjusted
    )
    for ref_grid, fast_grid in zip(ref[:2], fast[:2]):
        assert ref_grid.dtype == fast_grid.dtype
        np.testing.assert_array_equal(ref_grid, fast_grid)
    assert _tables_equal(ref[2], fast[2])
    assert _tables_equal(ref[3], fast[3])


def _plan_for(seed: int) -> FaultPlan:
    policy = (
        RedirectPolicy.REDIRECT if seed % 2 == 0 else RedirectPolicy.QUEUE
    )
    return random_fault_plan(
        seed, _shape(), policy=policy, label="differential"
    )


class TestNoFaultIdentity:
    def test_empty_plan_reproduces_golden_digest(self):
        result = _run(FaultPlan())
        assert result.faults is None
        assert _result_digest(result) == GOLDEN_DIGEST

    def test_none_plan_reproduces_golden_digest(self):
        assert _result_digest(_run(None)) == GOLDEN_DIGEST

    def test_out_of_horizon_plan_reproduces_traces(self):
        """Events entirely past the horizon leave the datasets untouched."""
        t = GOLDEN_SIM.duration_seconds
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH,
                    start_s=t + 10,
                    end_s=t + 20,
                    target=0,
                ),
            )
        )
        result = _run(plan)
        assert result.faults is not None  # the plan is non-empty...
        assert _result_digest(result) == GOLDEN_DIGEST  # ...but inert


class TestDifferentialUnderFaults:
    @pytest.mark.parametrize("seed", range(NUM_DIFFERENTIAL_PLANS))
    def test_scalar_and_fast_paths_are_bit_identical(self, seed):
        _assert_pass1_matches_oracle(_plan_for(seed))


class TestSeedsUnderFaults:
    def test_seed_changes_results(self):
        plan = _plan_for(0)
        assert _result_digest(_run(plan, seed=11)) != (
            _result_digest(_run(plan, seed=12))
        )


class TestFaultEffectsAreReal:
    """Guard against the harness passing because faults are silently inert."""

    def test_some_differential_plan_changes_the_datasets(self):
        changed = 0
        for seed in range(6):
            plan = _plan_for(seed)
            if _result_digest(_run(plan)) != GOLDEN_DIGEST:
                changed += 1
        assert changed > 0

    def test_crash_moves_load_off_the_failed_bs(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=0, end_s=45, target=0
                ),
            ),
            policy=RedirectPolicy.REDIRECT,
        )
        result = _run(plan)
        assert np.all(result.bs_load_bps[0] == 0.0)
        assert result.faults.accounting.redirected_ios > 0

    def test_degrade_inflates_in_window_latency(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.DEGRADE,
                    start_s=0,
                    end_s=45,
                    component="all",
                    multiplier=10.0,
                ),
            )
        )
        base = _run(None)
        degraded = _run(plan)
        total = lambda r: float(  # noqa: E731
            sum(
                r.traces.columns()[c].sum()
                for c in r.traces.columns()
                if c.endswith("_us")
            )
        )
        assert total(degraded) > 5.0 * total(base)
        assert degraded.faults.degraded_latency_fraction == 1.0

    def test_stall_replay_reaches_hypervisors(self):
        fleet = _build_fleet()
        qp = fleet.queue_pairs[0].qp_id
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.QP_STALL, start_s=5, end_s=60, target=qp
                ),
            )
        )
        result = _run(plan)
        node = result.fleet.queue_pairs[qp].compute_node_id
        log = result.hypervisors.node(node).stall_log
        assert any(
            entry.qp_id == qp and entry.action == "stall" for entry in log
        )
        # Window end (60) is past the horizon: still stalled at the end.
        assert result.hypervisors.node(node).is_stalled(qp)

    def test_crash_replay_reaches_storage_failure_log(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=5, end_s=20, target=1
                ),
            )
        )
        result = _run(plan)
        actions = [
            (event.bs_id, event.action)
            for event in result.storage.failure_log
        ]
        assert (1, "fail") in actions and (1, "recover") in actions
        assert not result.storage.is_failed(1)


def _digest_plan_outcome(plan) -> str:
    """Digest of datasets AND fault attribution, for the golden pin."""
    result = _run(plan)
    h = hashlib.sha256()
    h.update(_result_digest(result).encode())
    if result.faults is not None:
        import json

        h.update(
            json.dumps(result.faults.to_dict(), sort_keys=True).encode()
        )
    return h.hexdigest()


#: Datasets plus fault attribution of the golden run under
#: :attr:`TestGoldenFaultDigest.PLAN`.
GOLDEN_FAULT_DIGEST = (
    "b02bb082e9117302ca10309de3676104dba2ba93a566e192636426c585937669"
)


class TestGoldenFaultDigest:
    """One pinned end-to-end digest under a fixed non-trivial plan.

    If this moves, either the RNG stream layout or the fault semantics
    changed — both need a deliberate digest update with justification.
    """

    PLAN = FaultPlan(
        events=(
            FaultEvent(kind=FaultKind.BS_CRASH, start_s=5, end_s=25, target=2),
            FaultEvent(kind=FaultKind.QP_STALL, start_s=10, end_s=30, target=4),
            FaultEvent(
                kind=FaultKind.DEGRADE,
                start_s=0,
                end_s=40,
                component="chunk_server",
                multiplier=3.0,
            ),
        ),
        policy=RedirectPolicy.REDIRECT,
        retry_backoff_us=250.0,
    )

    def test_digest_is_stable_across_runs(self):
        assert _digest_plan_outcome(self.PLAN) == GOLDEN_FAULT_DIGEST

    def test_scalar_path_agrees(self):
        _assert_pass1_matches_oracle(self.PLAN)
