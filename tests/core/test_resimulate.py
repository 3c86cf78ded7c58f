"""``Study.resimulate``: experiment re-runs that reuse the study's traffic."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.simulator import OUTPUTS, EBSSimulator
from repro.core import Study
from repro.core.config import StudyConfig
from repro.engine.digest import result_digest
from repro.engine.shards import ShardStore, StreamedTraffic
from repro.faults.generate import PlanShape, random_fault_plan
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.obs.runtime import Telemetry, telemetry_session
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from tests.core.test_study import tiny_config


def _fresh(study, result, fault_plan=None, **settings):
    """The same DC simulated from scratch, generating its own traffic."""
    config = replace(study.config.simulation_config(), **settings)
    simulator = EBSSimulator(
        result.fleet, config, RngFactory(study.config.seed),
        fault_plan=fault_plan,
    )
    return simulator.run()


def _plan(study, result):
    shape = PlanShape.of_fleet(result.fleet, study.config.duration_seconds)
    return random_fault_plan(
        study.config.seed, shape, num_events=6,
        policy=RedirectPolicy.QUEUE, label="resimulate-test",
    )


def _traffic_fingerprint(traffic) -> str:
    """Hash of every array and every LBA-model field of the traffic."""
    h = hashlib.sha256()
    for vd in traffic:
        for name, value in sorted(vars(vd).items()):
            if isinstance(value, np.ndarray):
                h.update(name.encode() + value.tobytes())
            elif name == "lba_model":
                h.update(repr(sorted(vars(value).items())).encode())
            else:
                h.update(f"{name}={value!r}".encode())
    return h.hexdigest()


@pytest.fixture
def count_runs(monkeypatch):
    calls = []
    original = EBSSimulator.run

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("traffic") is not None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EBSSimulator, "run", counted)
    return calls


@pytest.fixture(
    scope="module", params=[None, 2], ids=["monolithic", "chunked"]
)
def study(request):
    built = Study(tiny_config(), chunk_epochs=request.param).build()
    yield built
    built.cleanup()


class TestOwnSettings:
    @pytest.mark.parametrize(
        "settings",
        [
            {},
            {"redundancy": "r=1"},
            {"redundancy": "r=1", "read_policy": "primary"},
        ],
    )
    def test_returns_the_study_result_without_a_run(
        self, study, count_runs, settings
    ):
        for result in study.results:
            assert study.resimulate(result, **settings) is result
        assert count_runs == []

    def test_a_faulted_study_reruns_fault_free(self):
        crash = FaultEvent(
            kind=FaultKind.BS_CRASH, start_s=40, end_s=80, target=0, dc=0
        )
        faulted = Study(
            replace(tiny_config(), fault_plan=FaultPlan(events=(crash,)))
        ).build()
        result = faulted.results[0]
        assert result.faults is not None
        out = faulted.resimulate(result)
        assert out is not result
        assert out.faults is None
        assert result_digest(out) == result_digest(_fresh(faulted, result))

    def test_a_redundant_study_reruns_single_copy(self):
        redundant = Study(
            replace(
                tiny_config(), redundancy="r=2", read_policy="least_loaded"
            )
        ).build()
        result = redundant.results[0]
        out = redundant.resimulate(
            result, redundancy="r=1", read_policy="primary"
        )
        assert out is not result
        fresh = _fresh(
            redundant, result, redundancy="r=1", read_policy="primary"
        )
        assert result_digest(out) == result_digest(fresh)


@pytest.fixture(scope="module")
def extra_faults_tables():
    """``extra_faults`` single-copy and under r=2 (least-loaded reads)."""
    single = Study(tiny_config()).run("extra_faults")
    redundant = Study(
        replace(tiny_config(), redundancy="r=2", read_policy="least_loaded")
    ).run("extra_faults")
    return single, redundant


def test_extra_faults_drops_qp_stalls_under_redundancy(extra_faults_tables):
    """Redundancy rejects QP stalls, so the experiment's drawn plans
    lose theirs; single-copy runs keep every drawn event."""
    single, redundant = extra_faults_tables
    events = single.headers.index("events")
    kept = [row[events] for row in redundant.rows]
    drawn = [row[events] for row in single.rows]
    assert all(k <= d for k, d in zip(kept, drawn)) and kept != drawn
    assert "qp_stall" in redundant.notes
    assert "qp_stall" not in single.notes


def test_extra_faults_notes_say_policies_agree_only_under_redundancy(
    extra_faults_tables,
):
    """Replica failover ignores the redirect policy, so under redundancy
    both policies' rows agree and the notes say so; single-copy notes
    (and rows) keep the policies apart."""
    single, redundant = extra_faults_tables
    policy = single.headers.index("policy")

    def by_policy(table):
        rows = {}
        for row in table.rows:
            rest = row[:policy] + row[policy + 1:]
            rows.setdefault(row[policy], []).append(rest)
        return rows["redirect"], rows["queue"]

    redirect, queue = by_policy(redundant)
    assert redirect == queue
    assert "redirect and queue rows agree" in redundant.notes
    redirect, queue = by_policy(single)
    assert redirect != queue
    assert "rows agree" not in single.notes


class TestOtherSettings:
    def test_fault_plan_matches_a_fresh_run(self, study, count_runs):
        for result in study.results:
            plan = _plan(study, result)
            out = study.resimulate(result, fault_plan=plan)
            assert out.faults is not None
            fresh = _fresh(study, result, fault_plan=plan)
            assert result_digest(out) == result_digest(fresh)
        # one reusing run per DC, one generating run per fresh reference
        assert count_runs == [True, False] * len(study.results)

    def test_redundancy_matches_a_fresh_run(self, study):
        for result in study.results:
            out = study.resimulate(
                result, redundancy="r=3", read_policy="least_loaded"
            )
            fresh = _fresh(
                study, result, redundancy="r=3", read_policy="least_loaded"
            )
            assert result_digest(out) == result_digest(fresh)

    def test_reruns_leave_the_traffic_untouched(self, study):
        result = study.results[0]
        before = _traffic_fingerprint(result.traffic)
        study.resimulate(result, fault_plan=_plan(study, result))
        study.resimulate(
            result, redundancy="r=2", read_policy="least_loaded"
        )
        assert _traffic_fingerprint(result.traffic) == before


def _draws_fingerprint(draws) -> str:
    h = hashlib.sha256()
    for name, value in sorted(vars(draws).items()):
        h.update(name.encode() + np.asarray(value).tobytes())
    return h.hexdigest()


DEGRADE = FaultEvent(
    kind=FaultKind.DEGRADE, start_s=20, end_s=70, component="all",
    multiplier=2.5,
)
CRASH = FaultEvent(kind=FaultKind.BS_CRASH, start_s=30, end_s=90, target=1)
STALL = FaultEvent(kind=FaultKind.QP_STALL, start_s=10, end_s=60, target=3)


class TestReusedDraws:
    """A re-simulation resolves the build's pass-2 draws instead of
    drawing them again, and still equals a fresh run."""

    @pytest.fixture(scope="class")
    def built(self):
        return Study(tiny_config()).build()

    @pytest.mark.parametrize(
        "settings, events, policy",
        [
            (dict(redundancy="r=2", read_policy="least_loaded"), (), None),
            (dict(redundancy="r=3", read_policy="power_of_two"), (), None),
            (
                dict(redundancy="ec=2+1", read_policy="least_loaded"),
                (CRASH,),
                RedirectPolicy.QUEUE,
            ),
            ({}, (CRASH, STALL, DEGRADE), RedirectPolicy.QUEUE),
            ({}, (CRASH, STALL, DEGRADE), RedirectPolicy.REDIRECT),
        ],
        ids=["r2-least_loaded", "r3-power_of_two", "ec21-crash",
             "queue-degrade", "redirect-degrade"],
    )
    def test_matches_a_fresh_run(self, built, settings, events, policy):
        plan = FaultPlan(events=events, policy=policy) if events else None
        for result in built.results:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    EBSSimulator, "_draw",
                    lambda self, traffic: pytest.fail("pass 2 drew again"),
                )
                out = built.resimulate(result, fault_plan=plan, **settings)
            fresh = _fresh(built, result, fault_plan=plan, **settings)
            assert result_digest(out) == result_digest(fresh)
            if plan is not None:
                assert out.faults.to_dict() == fresh.faults.to_dict()
            assert out.draws is result.draws

    def test_draws_stay_byte_identical(self, built):
        result = built.results[0]
        before = _draws_fingerprint(result.draws)
        built.resimulate(
            result, fault_plan=FaultPlan(
                events=(CRASH, STALL, DEGRADE), policy=RedirectPolicy.QUEUE
            ),
        )
        built.resimulate(result, redundancy="r=3", read_policy="power_of_two")
        assert _draws_fingerprint(result.draws) == before
        assert not result.draws.offsets.flags.writeable

    def test_the_built_dataset_shares_the_draws(self, built):
        # Kept draws cost little beyond the trace dataset: the columns a
        # fault-free single-chunk run passes through are the draws'.
        for result in built.results:
            traces, draws = result.traces, result.draws
            for column, drawn in (
                (traces.size_bytes, draws.sizes),
                (traces.offset_bytes, draws.offsets),
                (traces.timestamp, draws.timestamps),
                (traces.lat_frontend_us, draws.latency[1]),
                (traces.lat_backend_us, draws.latency[3]),
                (traces.lat_chunk_server_us, draws.latency[4]),
            ):
                assert np.shares_memory(column, drawn)
            assert draws.seconds.itemsize == 1 + (
                built.config.duration_seconds > 256
            )

    def test_results_without_draws_draw_again(self, built):
        result = built.results[1]
        bare = replace(result, draws=None)
        study = Study.from_results(
            built.config, [built.results[0], bare]
        )
        out = study.resimulate(bare, redundancy="r=2")
        assert out.draws is not None
        want = built.resimulate(result, redundancy="r=2")
        assert result_digest(out) == result_digest(want)
        assert _draws_fingerprint(out.draws) == _draws_fingerprint(
            result.draws
        )

    def test_streamed_build_keeps_no_draws(self):
        streamed = Study(tiny_config(), chunk_epochs=2).build()
        try:
            assert all(result.draws is None for result in streamed.results)
        finally:
            streamed.cleanup()

    def test_foreign_draws_are_rejected(self, built):
        result = built.results[0]
        simulator = EBSSimulator(
            result.fleet, built.config.simulation_config(), built.rngs
        )
        other_horizon = replace(result.draws, duration_seconds=60)
        with pytest.raises(ConfigError, match="draws"):
            simulator.run(traffic=result.traffic, draws=other_horizon)


class TestStreamedStudy:
    """A streamed study re-simulates from its own shard store."""

    @pytest.mark.parametrize(
        "settings",
        [
            dict(redundancy="r=3", read_policy="power_of_two"),
            dict(redundancy="ec=2+1", read_policy="least_loaded"),
        ],
        ids=["r3-power_of_two", "ec21-least_loaded"],
    )
    def test_matches_the_in_memory_study_without_materializing(
        self, monkeypatch, settings
    ):
        in_memory = Study(tiny_config()).build()
        streamed = Study(tiny_config(), chunk_epochs=1).build()
        try:
            def refuse(view):
                raise AssertionError("resimulate read the whole traffic")

            # Neither the store nor the view may be read whole: the run
            # reloads one time shard or one VD batch at a time.
            monkeypatch.setattr(ShardStore, "materialize", refuse)
            monkeypatch.setattr(StreamedTraffic, "__iter__", refuse)
            for mine, theirs in zip(streamed.results, in_memory.results):
                with telemetry_session(Telemetry(enabled=True)) as handle:
                    out = streamed.resimulate(mine, **settings)
                shards = [
                    span for span in handle.snapshot()["spans"]
                    if span["name"] == "engine.pass1.shard"
                ]
                assert len(shards) == 2  # 120 s in 60 s shards
                want = in_memory.resimulate(theirs, **settings)
                assert result_digest(out) == result_digest(want)
        finally:
            streamed.cleanup()


def _field_bytes(result, name):
    """One :data:`OUTPUTS` field of a result, as exact comparable bytes.

    Floats go through JSON as their ``repr``, which round-trips every
    double exactly (NaN included).
    """
    value = getattr(result, name)
    if value is None:
        return None
    if name in ("wt_load_bps", "bs_load_bps"):
        return value.dtype.str.encode() + value.tobytes()
    if name == "latency":
        return value.timestamp.tobytes() + value.total_us.tobytes()
    if name == "accounting":
        return json.dumps(vars(value), sort_keys=True).encode()
    if name == "faults":
        return json.dumps(value.to_dict(), sort_keys=True).encode()
    raise AssertionError(f"no fingerprint for {name}")


#: The output sets the experiments ask for.
EXPERIMENT_OUTPUTS = {
    "redundancy_cov": {"bs_load_bps", "latency"},
    "extra_faults": {"faults"},
    "redundancy_faults": {"accounting"},
}


def _random_plan(study, result, policy):
    shape = PlanShape.of_fleet(result.fleet, study.config.duration_seconds)
    return random_fault_plan(
        study.config.seed + 11, shape, num_events=8, policy=policy,
        label="outputs-test",
    )


class TestOutputs:
    """``outputs=`` computes only the named fields, each bit-identical
    to a full re-run's, on a monolithic and a streamed study alike."""

    @pytest.mark.parametrize(
        "settings, plan",
        [
            (dict(redundancy="r=1", read_policy="primary"), None),
            (dict(redundancy="r=1", read_policy="primary"), "crash"),
            (dict(redundancy="r=2", read_policy="least_loaded"), None),
            (dict(redundancy="r=3", read_policy="power_of_two"), None),
            (dict(redundancy="ec=2+1", read_policy="least_loaded"), "crash"),
            ({}, RedirectPolicy.QUEUE),
            ({}, RedirectPolicy.REDIRECT),
        ],
        ids=[
            "r1", "r1-crash", "r2-least_loaded", "r3-power_of_two",
            "ec21-crash", "random-queue", "random-redirect",
        ],
    )
    def test_asked_fields_match_a_full_rerun(self, study, settings, plan):
        for result in study.results:
            if plan is None:
                fault_plan = None
            elif plan == "crash":
                fault_plan = FaultPlan(
                    events=(CRASH,), policy=RedirectPolicy.QUEUE
                )
            else:
                fault_plan = _random_plan(study, result, plan)
            full = study.resimulate(result, fault_plan=fault_plan, **settings)
            for experiment, outputs in EXPERIMENT_OUTPUTS.items():
                out = study.resimulate(
                    result, fault_plan=fault_plan, outputs=outputs,
                    **settings,
                )
                for name in OUTPUTS:
                    if name in outputs:
                        assert _field_bytes(out, name) == _field_bytes(
                            full, name
                        ), (experiment, name)
                    else:
                        assert getattr(out, name) is None, (experiment, name)
            if fault_plan is not None:
                assert full.faults.windows
                assert full.faults.accounting is full.accounting

    def test_the_fault_free_shortcut_restricts_the_study_result(
        self, study, count_runs
    ):
        result = study.results[0]
        out = study.resimulate(result, outputs={"bs_load_bps", "latency"})
        assert count_runs == []
        assert out.bs_load_bps is result.bs_load_bps
        assert out.latency is result.latency
        assert out.metrics is None and out.traces is None
        assert out.wt_load_bps is None

    def test_the_build_computes_every_field(self, study):
        for result in study.results:
            assert result.metrics is not None
            assert result.traces is not None
            assert result.latency is not None
            assert np.array_equal(
                result.latency.total_us, result.traces.latency_us
            )
            assert result.latency.timestamp is result.traces.timestamp

    def test_accounting_alone_runs_neither_pass(self, study, monkeypatch):
        result = study.results[0]
        for name in ("run_pass1", "_run_pass2"):
            monkeypatch.setattr(
                EBSSimulator, name,
                lambda *args, name=name, **kwargs: pytest.fail(name),
            )
        out = study.resimulate(
            result, redundancy="r=2", read_policy="least_loaded",
            fault_plan=FaultPlan(events=(CRASH,)), outputs={"accounting"},
        )
        assert out.accounting.offered_storage_ios > 0
        storage, compute = out.accounting.conservation_residual()
        assert storage <= 1e-6 * out.accounting.offered_storage_ios
        assert compute <= 1e-6 * out.accounting.offered_compute_ios

    def test_unknown_outputs_are_rejected(self, study):
        result = study.results[0]
        for outputs in ({"trace"}, {"faults", "metric_tables"}, "faults"):
            with pytest.raises(ConfigError, match="outputs"):
                study.resimulate(result, outputs=outputs)
        simulator = EBSSimulator(
            result.fleet, study.config.simulation_config(), study.rngs
        )
        with pytest.raises(ConfigError, match="outputs"):
            simulator.run(traffic=result.traffic, outputs={"grids"})


class TestTrafficChecks:
    def test_wrong_vd_count_is_rejected(self, study):
        result = study.results[0]
        simulator = EBSSimulator(
            result.fleet, study.config.simulation_config(), study.rngs
        )
        with pytest.raises(ConfigError, match="VDs"):
            simulator.run(traffic=list(result.traffic)[:-1])

    def test_wrong_horizon_is_rejected(self, study):
        result = study.results[0]
        config = replace(
            study.config.simulation_config(), duration_seconds=60
        )
        simulator = EBSSimulator(result.fleet, config, study.rngs)
        with pytest.raises(ConfigError, match="spans"):
            simulator.run(traffic=result.traffic)


def test_run_all_leaves_every_result_unchanged():
    study = Study(tiny_config()).build()
    digests = [result_digest(result) for result in study.results]
    traffic = [_traffic_fingerprint(r.traffic) for r in study.results]
    study.run_all()
    assert [result_digest(result) for result in study.results] == digests
    assert [_traffic_fingerprint(r.traffic) for r in study.results] == traffic


def _names_inside_experiments(spans) -> dict:
    """Span names recorded inside each ``study.experiment`` span.

    Spans are recorded as they finish and experiments run one after
    another, so everything recorded since the previous experiment (or
    the build) finished belongs to the next experiment span.
    """
    inside: dict = {}
    bucket: list = []
    for span in spans:
        if span["name"] == "study.experiment":
            inside[span["labels"]["experiment"]] = bucket
            bucket = []
        elif span["name"] == "study.build":
            bucket = []
        else:
            bucket.append(span["name"])
    return inside


def _counter_total(snapshot, name) -> float:
    return sum(
        entry["value"]
        for entry in snapshot["metrics"]["counters"]
        if entry["name"] == name
    )


def test_reduced_reruns_record_no_passes_they_skip():
    config = StudyConfig.scale("small", seed=3, duration_seconds=120)
    with telemetry_session(Telemetry(enabled=True)) as handle:
        study = Study(config).build()
        built_rows = _counter_total(handle.snapshot(), "sim.pass1.rows")
        study.run_all()
        snapshot = handle.snapshot()
    inside = _names_inside_experiments(snapshot["spans"])
    faults_rungs = inside["redundancy_faults"]
    assert "sim.pass1" not in faults_rungs
    assert "sim.pass2" not in faults_rungs
    assert faults_rungs.count("sim.faults.adjust") >= 2
    # The other two re-simulating experiments still run both passes,
    # grids-only and latency-only.
    for experiment in ("redundancy_cov", "extra_faults"):
        assert "sim.pass1" in inside[experiment]
        assert "sim.pass2" in inside[experiment]
    # No re-run emits metric rows: every row counted is the build's.
    assert built_rows > 0
    assert _counter_total(snapshot, "sim.pass1.rows") == built_rows
