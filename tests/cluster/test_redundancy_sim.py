"""Simulator-level redundancy tests: parity, digests, failover, guards.

Pins the three load-bearing guarantees of the redundancy redesign:

- **r=1 golden parity** — ``redundancy="r=1"`` under any read policy
  is byte-for-byte the no-redundancy simulator (same golden digest, and
  the same fault outcome under a crash plan);
- **differential** — for every read policy and for EC, the vectorized
  pass-1 is bit-identical to the scalar oracle
  (``tests/oracles/pass1.py``), with and without a fault plan;
- **failover accounting** — IO mass is conserved (delivered + dropped
  == offered) when a crash window hits a replicated cluster, and the
  unsupported combination (qp_stall) is rejected loudly.

Whole runs under redundancy are pinned by digest here; their streamed
twins, over every shard geometry, are checked against the in-memory run
in ``tests/engine/test_streaming_parity.py``.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.cluster.storage import StorageCluster
from repro.cluster.redundancy import READ_POLICY_NAMES, RedundancyConfig
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.workload.fleet import build_fleet
from repro.workload.generator import WorkloadGenerator

from tests.cluster.test_simulator_fastpath import (
    GOLDEN_DIGEST,
    GOLDEN_FLEET,
    GOLDEN_SIM,
    _result_digest,
    _tables_equal,
)
from tests.oracles.pass1 import reference_pass1

#: Non-trivial schemes that fit the 3-BS golden fleet.
SCHEMES = ["r=2", "r=3", "ec=2+1"]

#: Full-run digest of the golden run at r=3 under power_of_two reads.
R3_POWER_OF_TWO_DIGEST = (
    "6489f1c6e3c4e6e0c751c2ec669e2fa3f560187d9305825baff5de784b6b0545"
)
#: Datasets plus fault attribution of the golden run at ec=2+1 under
#: least_loaded reads and :data:`EC_CRASH_PLAN`.
EC21_CRASH_DIGEST = (
    "b678a2892e46d1f78b17c95aed43e2374e34de31bfa25d3b155bcb474d4d98e3"
)
EC_CRASH_PLAN = FaultPlan(
    events=(
        FaultEvent(kind=FaultKind.BS_CRASH, start_s=15, end_s=30, target=0),
    ),
    policy=RedirectPolicy.QUEUE,
)


def _simulator(redundancy, read_policy="primary", plan=None, seed=11):
    rngs = RngFactory(seed)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    config = replace(
        GOLDEN_SIM, redundancy=redundancy, read_policy=read_policy
    )
    return EBSSimulator(fleet, config, rngs, fault_plan=plan)


def _run(redundancy, read_policy="primary", plan=None, seed=11):
    return _simulator(redundancy, read_policy, plan, seed).run()


def _outcome_digest(result) -> str:
    """A run's result digest extended by its fault attribution."""
    h = hashlib.sha256(_result_digest(result).encode())
    if result.faults is not None:
        h.update(
            json.dumps(result.faults.to_dict(), sort_keys=True).encode()
        )
    return h.hexdigest()


class TestGoldenParity:
    """r=1 must run the single-copy code paths untouched, whatever the
    read policy: one copy leaves nothing to choose."""

    def test_r1_primary_reproduces_the_golden_digest(self):
        assert _result_digest(_run("r=1")) == GOLDEN_DIGEST

    def test_trivial_scheme_is_detected(self):
        assert SimulationConfig().redundancy_config() is None
        for policy in READ_POLICY_NAMES:
            config = replace(
                GOLDEN_SIM, redundancy="r=1", read_policy=policy
            )
            assert config.redundancy_config() is None, policy
        nontrivial = replace(
            GOLDEN_SIM, redundancy="r=2", read_policy="primary"
        )
        assert nontrivial.redundancy_config() is not None

    def test_r1_crash_outcome_is_the_same_under_every_policy(self):
        # A queued crash at r=1 holds the downed BS's IOs until
        # recovery; a policy that routed r=1 through the replica
        # expansion would drop them instead (no copy to fail over to).
        expected = _outcome_digest(_run(None, plan=EC_CRASH_PLAN))
        for policy in READ_POLICY_NAMES:
            result = _run("r=1", read_policy=policy, plan=EC_CRASH_PLAN)
            assert result.faults.accounting.queued_ios > 0, policy
            assert _outcome_digest(result) == expected, policy

    def test_nontrivial_redundancy_changes_the_result(self):
        assert _result_digest(_run("r=2")) != GOLDEN_DIGEST


class TestPinnedDigests:
    """Whole runs under redundancy, traces included, pinned by value."""

    def test_r3_power_of_two_digest(self):
        result = _run("r=3", read_policy="power_of_two")
        assert _result_digest(result) == R3_POWER_OF_TWO_DIGEST

    def test_ec21_crash_plan_digest(self):
        result = _run("ec=2+1", read_policy="least_loaded", plan=EC_CRASH_PLAN)
        assert _outcome_digest(result) == EC21_CRASH_DIGEST


class TestDifferential:
    """Scalar vs vectorized pass 1 under every policy and scheme."""

    @pytest.fixture(scope="class")
    def inputs(self, small_fleet):
        rngs = RngFactory(13)
        config = SimulationConfig(
            duration_seconds=90, trace_sampling_rate=1.0 / 10.0
        )
        generator = WorkloadGenerator(
            small_fleet, config.duration_seconds, rngs,
            diurnal_amplitude=config.diurnal_amplitude,
        )
        traffic = generator.generate_all()
        return small_fleet, config, traffic

    def _pass1_pair(self, fleet, config, traffic, plan=None):
        rngs = RngFactory(13)
        simulator = EBSSimulator(fleet, config, rngs, fault_plan=plan)
        storage = StorageCluster(
            fleet, redundancy=config.redundancy_config()
        )
        qp_to_wt, seg_to_bs = simulator.bindings(
            HypervisorSet(fleet), storage
        )
        ref = reference_pass1(simulator, traffic, qp_to_wt, seg_to_bs)
        fast = simulator.run_pass1(traffic, qp_to_wt, seg_to_bs)
        return ref, fast

    @pytest.mark.parametrize("policy", READ_POLICY_NAMES)
    def test_fast_path_bit_identical_per_policy(self, inputs, policy):
        fleet, config, traffic = inputs
        config = replace(config, redundancy="r=3", read_policy=policy)
        ref, fast = self._pass1_pair(fleet, config, traffic)
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        assert _tables_equal(ref[2], fast[2])
        assert _tables_equal(ref[3], fast[3])

    @pytest.mark.parametrize("spec", ["r=2", "ec=2+1", "ec=4+2"])
    def test_fast_path_bit_identical_per_scheme(self, inputs, spec):
        fleet, config, traffic = inputs
        config = replace(
            config, redundancy=spec, read_policy="least_loaded"
        )
        ref, fast = self._pass1_pair(fleet, config, traffic)
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        assert _tables_equal(ref[2], fast[2])
        assert _tables_equal(ref[3], fast[3])

    def test_fast_path_bit_identical_under_a_crash_plan(self, inputs):
        fleet, config, traffic = inputs
        config = replace(
            config, redundancy="r=2", read_policy="least_loaded"
        )
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=20, end_s=50, target=1
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        )
        ref, fast = self._pass1_pair(fleet, config, traffic, plan=plan)
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        assert _tables_equal(ref[2], fast[2])
        assert _tables_equal(ref[3], fast[3])

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_full_run_digest_stable_across_paths(self, spec):
        """A whole run's pass 1 (expansion built from the placement
        table, power-of-two draws included) matches the oracle replayed
        on that run's own inputs."""
        simulator = _simulator(spec, read_policy="power_of_two")
        result = simulator.run()
        qp_to_wt, seg_to_bs = simulator.bindings(
            result.hypervisors, result.storage
        )
        ref = reference_pass1(
            simulator, result.traffic, qp_to_wt, seg_to_bs
        )
        np.testing.assert_array_equal(ref[0], result.wt_load_bps)
        np.testing.assert_array_equal(ref[1], result.bs_load_bps)
        assert _tables_equal(ref[2], result.metrics.compute)
        assert _tables_equal(ref[3], result.metrics.storage)

    def test_same_seed_same_digest(self):
        a = _run("r=3", read_policy="power_of_two")
        b = _run("r=3", read_policy="power_of_two")
        assert _result_digest(a) == _result_digest(b)


def _run_unfiltered(redundancy, read_policy="primary"):
    """Zero recording thresholds: per-copy metric rows are never masked,
    so the byte totals below are exact, not threshold-dependent."""
    rngs = RngFactory(11)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    config = replace(
        GOLDEN_SIM,
        min_record_bytes=0.0,
        min_record_iops=0.0,
        redundancy=redundancy,
        read_policy=read_policy,
    )
    return EBSSimulator(fleet, config, rngs).run()


class TestReplicaMass:
    """The offered load grid carries the scheme's write fan-out."""

    @pytest.mark.parametrize(
        "spec, amplification",
        [("r=2", 2.0), ("r=3", 3.0), ("ec=2+1", 1.5)],
    )
    def test_write_bytes_amplified_by_the_scheme(self, spec, amplification):
        base = _run_unfiltered(None)
        redundant = _run_unfiltered(spec)
        base_write = float(
            np.asarray(base.metrics.storage.columns()["write_bytes"]).sum()
        )
        red_write = float(
            np.asarray(
                redundant.metrics.storage.columns()["write_bytes"]
            ).sum()
        )
        assert red_write == pytest.approx(
            amplification * base_write, rel=1e-9
        )

    def test_read_bytes_conserved_across_copies(self):
        # A read policy steers reads, it must not create or destroy them.
        base = _run_unfiltered(None)
        for policy in READ_POLICY_NAMES:
            redundant = _run_unfiltered("r=3", read_policy=policy)
            base_read = float(
                np.asarray(base.metrics.storage.columns()["read_bytes"]).sum()
            )
            red_read = float(
                np.asarray(
                    redundant.metrics.storage.columns()["read_bytes"]
                ).sum()
            )
            assert red_read == pytest.approx(base_read, rel=1e-9), policy

    def test_cov_monotone_under_replication(self):
        covs = []
        for spec in (None, "r=2", "r=3"):
            result = _run(spec, read_policy="least_loaded" if spec else "primary")
            load = result.bs_load_bps.sum(axis=1)
            covs.append(float(np.std(load) / np.mean(load)))
        assert covs[1] <= covs[0] + 1e-9
        assert covs[2] <= covs[1] + 1e-9


class TestFailover:
    def _crash_plan(self, target=0):
        return FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=15, end_s=30,
                    target=target,
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        )

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_io_mass_conserved_under_crash(self, spec):
        result = _run(
            spec, read_policy="least_loaded", plan=self._crash_plan()
        )
        outcome = result.faults
        assert outcome is not None
        offered = outcome.accounting.offered_storage_ios
        storage_residual, compute_residual = outcome.conservation_residual()
        assert storage_residual <= 1e-6 * max(offered, 1.0)
        assert compute_residual <= 1e-6 * max(
            outcome.accounting.offered_compute_ios, 1.0
        )

    def test_reads_fail_over_instead_of_queueing(self):
        # Single-copy: a crash queues/blocks reads on the downed BS.
        # Replicated: reads fail over to a surviving copy, so the
        # redirected counter moves and the queued counter drops.
        single = _run(None, plan=self._crash_plan()).faults
        replicated = _run(
            "r=3", read_policy="primary", plan=self._crash_plan()
        ).faults
        assert single.accounting.queued_ios > 0
        assert replicated.accounting.queued_ios == 0
        assert replicated.accounting.redirected_ios > 0

    def test_qp_stall_with_redundancy_rejected(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.QP_STALL, start_s=10, end_s=20, target=0
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        )
        with pytest.raises(ConfigError, match="qp_stall"):
            _run("r=2", plan=plan)

    @pytest.mark.parametrize("policy", READ_POLICY_NAMES)
    def test_qp_stall_with_trivial_redundancy_still_allowed(self, policy):
        result = _run(
            "r=1",
            read_policy=policy,
            plan=FaultPlan(
                events=(
                    FaultEvent(
                        kind=FaultKind.QP_STALL, start_s=10, end_s=20,
                        target=0,
                    ),
                ),
                policy=RedirectPolicy.QUEUE,
            ),
        )
        assert result.faults is not None


class TestEngineGuards:
    def test_scheme_too_wide_for_the_fleet_rejected(self):
        rngs = RngFactory(11)
        fleet = build_fleet(GOLDEN_FLEET, rngs)  # 3 BlockServers
        config = replace(GOLDEN_SIM, redundancy="ec=4+2")
        with pytest.raises(ConfigError, match="distinct"):
            EBSSimulator(fleet, config, rngs)

    def test_simulation_result_storage_carries_the_scheme(self):
        result = _run("r=3", read_policy="least_loaded")
        assert result.storage.width == 3
        assert result.storage.scheme == RedundancyConfig.parse("r=3")
        result.storage.check_invariants()
