"""The determinism contract: streamed == in memory, byte for byte.

One code path runs both: in memory it is a single time shard, streamed it
reads the same body shard by shard from a store.  For a fixed seed,
every ``chunk_epochs`` × ``vd_batch_size`` combination must produce the
same result digest, the same merged ``sim.*``/``workload.*`` telemetry
metrics, and the same fault outcome as the single-shard run, with and
without redundancy.  The in-suite matrix here is the local twin of the
nightly CI job.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.engine import StreamingSimulator, result_digest, snapshot_digest
from repro.engine import merge
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, RedirectPolicy
from repro.obs.runtime import Telemetry, telemetry_session
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet

from tests.cluster.test_redundancy_sim import R3_POWER_OF_TWO_DIGEST

FLEET = FleetConfig(
    dc_id=0, num_users=4, num_vms=12, num_compute_nodes=4,
    num_storage_nodes=3,
)
SIM = SimulationConfig(duration_seconds=45, trace_sampling_rate=0.2)
#: 9s epochs make 45s runs exercise multi-shard plans (incl. ragged).
EPOCH = 9
PLAN = FaultPlan(events=(
    FaultEvent(kind=FaultKind.BS_CRASH, target=1, start_s=10, end_s=20),
    FaultEvent(kind=FaultKind.QP_STALL, target=2, start_s=5, end_s=12),
))


#: 50s is NOT a multiple of the 9s epoch: the final epoch itself is
#: partial (5s), on top of whatever ragged final *shard* the chunking
#: produces — the worst-case shard geometry.
RAGGED_SIM = SimulationConfig(duration_seconds=50, trace_sampling_rate=0.2)


def _run(
    streamed, chunk_epochs=2, vd_batch_size=5, plan=None, telemetry=False,
    cleanup=True, sim=SIM,
):
    """One run; ``cleanup=False`` keeps the shard store alive so the
    caller can read the lazy ``result.traffic`` view (caller must call
    ``engine.cleanup()``)."""
    rngs = RngFactory(11)
    fleet = build_fleet(FLEET, rngs)
    simulator = EBSSimulator(fleet, sim, rngs, fault_plan=plan)
    session = Telemetry(enabled=telemetry)
    engine = None
    with telemetry_session(session) as handle:
        if streamed:
            engine = StreamingSimulator(
                simulator, chunk_epochs, epoch_seconds=EPOCH,
                vd_batch_size=vd_batch_size,
            )
            try:
                result = simulator.run(traffic=engine.spill())
                snapshot = handle.snapshot() if telemetry else None
            finally:
                if cleanup:
                    engine.cleanup()
        else:
            result = simulator.run()
            snapshot = handle.snapshot() if telemetry else None
    return result, snapshot, engine


@pytest.fixture(scope="module")
def monolithic():
    result, _, _ = _run(False)
    return result


class TestDigestParity:
    @pytest.mark.parametrize("chunk_epochs", [1, 2, 5, 7])
    @pytest.mark.parametrize("vd_batch_size", [1, 2])
    def test_streamed_digest_matches_monolithic(
        self, monolithic, chunk_epochs, vd_batch_size
    ):
        # chunk_epochs=7 exceeds the run's 5 epochs: the whole
        # simulation must collapse into one (clamped) shard.  Pass 2
        # reads one store batch at a time, so vd_batch_size sets its
        # VD chunks (1: one VD each; 2: pairs).
        result, _, _ = _run(
            True, chunk_epochs=chunk_epochs, vd_batch_size=vd_batch_size
        )
        assert result_digest(result) == result_digest(monolithic)

    def test_streamed_traffic_view_matches(self, monolithic):
        result, _, engine = _run(True, chunk_epochs=2, cleanup=False)
        try:
            assert len(result.traffic) == len(monolithic.traffic)
            for got, want in zip(result.traffic, monolithic.traffic):
                assert got.vd_id == want.vd_id
                assert np.array_equal(got.read_bytes, want.read_bytes)
                assert np.array_equal(got.write_iops, want.write_iops)
        finally:
            engine.cleanup()

    def test_grids_and_tables_bitwise(self, monolithic):
        result, _, _ = _run(True, chunk_epochs=3)
        assert result.wt_load_bps.dtype == monolithic.wt_load_bps.dtype
        assert np.array_equal(result.wt_load_bps, monolithic.wt_load_bps)
        assert np.array_equal(result.bs_load_bps, monolithic.bs_load_bps)
        for name, column in monolithic.metrics.compute.columns().items():
            got = result.metrics.compute.columns()[name]
            assert got.dtype == column.dtype
            assert np.array_equal(got, column)


#: The matrix's run settings: (simulation config, fault plan).
SCENARIOS = {
    "r1": (replace(SIM, redundancy="r=1"), None),
    "r3-power_of_two": (
        replace(SIM, redundancy="r=3", read_policy="power_of_two"), None
    ),
    "ec21-crash": (
        replace(SIM, redundancy="ec=2+1", read_policy="least_loaded"),
        FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, target=0, start_s=15, end_s=30
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        ),
    ),
}


@pytest.fixture(scope="module")
def single_shard():
    """The in-memory (single-shard) run of each scenario, built once."""
    results = {}

    def get(scenario):
        if scenario not in results:
            sim, plan = SCENARIOS[scenario]
            results[scenario], _, _ = _run(False, sim=sim, plan=plan)
        return results[scenario]

    return get


class TestShardGeometryMatrix:
    """VD batch × chunk × {r=1, r=3 power_of_two, ec=2+1 + crash}.

    chunk_epochs=1 cuts 45 s into five 9 s shards, 2 into three (the
    last ragged), and 7 exceeds the run's five epochs (one shard).
    """

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    @pytest.mark.parametrize("chunk_epochs", [1, 2, 7])
    @pytest.mark.parametrize("vd_batch_size", [1, 2])
    def test_streamed_matches_single_shard(
        self, single_shard, scenario, chunk_epochs, vd_batch_size
    ):
        sim, plan = SCENARIOS[scenario]
        want = single_shard(scenario)
        got, _, _ = _run(
            True, chunk_epochs=chunk_epochs, vd_batch_size=vd_batch_size,
            plan=plan, sim=sim,
        )
        assert result_digest(got) == result_digest(want)
        assert got.storage.width == want.storage.width
        if plan is not None:
            assert got.faults.accounting == want.faults.accounting
            assert got.faults.trace_stats == want.faults.trace_stats
            assert got.faults.windows == want.faults.windows

    def test_single_shard_reference_is_the_pinned_digest(
        self, single_shard
    ):
        # The matrix's reference is itself pinned by value.
        assert (
            result_digest(single_shard("r3-power_of_two"))
            == R3_POWER_OF_TWO_DIGEST
        )

    def test_replicated_storage_rows_keep_replica_order(self, single_shard):
        """Copies of a segment share ``(segment_id, timestamp)`` keys, so
        a multi-shard merge must sort by replica to keep the
        single-shard row order (replica-major, then time)."""
        sim, _ = SCENARIOS["r3-power_of_two"]
        want = single_shard("r3-power_of_two").metrics.storage.columns()
        keys = np.stack([want["segment_id"], want["timestamp"]])
        assert np.unique(keys, axis=1).shape[1] < keys.shape[1]
        got, _, _ = _run(True, chunk_epochs=1, sim=sim)
        for name, column in want.items():
            assert np.array_equal(
                got.metrics.storage.columns()[name], column
            ), name

    def test_single_part_is_merged_without_a_sort(self):
        def part(ts):
            return {
                "timestamp": np.array(ts),
                "entity_id": np.array([1, 0]),
                "read_bytes": np.array([5.0, 6.0]),
            }

        # A single part is already in single-shard order: kept as is.
        alone = merge.merge_columns([part([3, 4])], "entity_id")
        assert alone["timestamp"].tolist() == [3, 4]
        # Several parts are sorted by (entity, timestamp).
        both = merge.merge_columns([part([3, 4]), part([7, 8])], "entity_id")
        assert both["timestamp"].tolist() == [4, 8, 3, 7]
        assert both["read_bytes"].tolist() == [6.0, 6.0, 5.0, 5.0]


@pytest.fixture(scope="module")
def ragged_monolithic():
    result, _, _ = _run(False, sim=RAGGED_SIM)
    return result


class TestGeometryEdgeCases:
    """The shard-geometry corners: oversize chunks and partial epochs."""

    @pytest.mark.parametrize("chunk_epochs", [2, 4, 7])
    def test_partial_final_epoch_matches_monolithic(
        self, ragged_monolithic, chunk_epochs
    ):
        """50s over 9s epochs: the last epoch is 5s, shards are ragged.

        chunk=2 -> shards 18+18+14s; chunk=4 -> 36+14s; chunk=7 (> the
        run's 6 epochs) -> one 50s shard.  All must match the
        single-shot digest exactly.
        """
        result, _, _ = _run(True, sim=RAGGED_SIM, chunk_epochs=chunk_epochs)
        assert result_digest(result) == result_digest(ragged_monolithic)

    def test_oversize_chunk_collapses_to_one_shard(self):
        from repro.engine.plan import plan_for

        plan = plan_for(45, num_vds=12, chunk_epochs=7, epoch_seconds=9)
        assert plan.num_shards == 1
        assert plan.shard_bounds(0) == (0, 45)

    def test_ragged_plan_bounds_cover_exactly_once(self):
        from repro.engine.plan import plan_for

        plan = plan_for(50, num_vds=12, chunk_epochs=2, epoch_seconds=9)
        bounds = plan.all_shard_bounds()
        assert bounds == [(0, 18), (18, 36), (36, 50)]
        assert bounds[0][0] == 0 and bounds[-1][1] == 50
        for (_, t1), (t0, _) in zip(bounds, bounds[1:]):
            assert t1 == t0  # contiguous, no overlap, no gap


class TestTelemetryParity:
    def test_metric_namespaces_match(self):
        _, mono, _ = _run(False, telemetry=True)
        _, streamed, _ = _run(True, chunk_epochs=2, telemetry=True)
        assert snapshot_digest(mono) == snapshot_digest(streamed)


class TestFaultParity:
    def test_fault_run_digest_and_outcome(self):
        mono, mono_snap, _ = _run(False, plan=PLAN, telemetry=True)
        streamed, s_snap, _ = _run(
            True, chunk_epochs=2, plan=PLAN, telemetry=True
        )
        assert result_digest(mono) == result_digest(streamed)
        assert mono.faults is not None and streamed.faults is not None
        assert mono.faults.accounting == streamed.faults.accounting
        assert mono.faults.trace_stats == streamed.faults.trace_stats
        assert mono.faults.windows == streamed.faults.windows
        assert snapshot_digest(mono_snap) == snapshot_digest(s_snap)


class TestStudyIntegration:
    def test_streamed_study_matches_monolithic(self, tmp_path):
        config = StudyConfig.scale("small", seed=5)
        mono = Study(config).build()
        streamed = Study(
            config,
            chunk_epochs=2,
            shard_dir=str(tmp_path / "shards"),
        ).build()
        try:
            assert len(mono.results) == len(streamed.results)
            for a, b in zip(mono.results, streamed.results):
                assert result_digest(a) == result_digest(b)
            # Experiments consume the lazy traffic view unchanged.
            got = streamed.run("table3")
            want = mono.run("table3")
            assert got.rows == want.rows
        finally:
            streamed.cleanup()

    def test_streamed_study_rejects_bad_chunk(self):
        with pytest.raises(Exception):
            Study(StudyConfig.scale("small"), chunk_epochs=0)
