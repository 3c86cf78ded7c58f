"""End-to-end acceptance tests for the incremental sweep orchestrator.

The contract under test: a warm replay, a pool run, a streamed run, and
a resumed-after-interrupt run of the same spec are all digest-identical
to the cold inline run — and warm replays do essentially no work.
"""

import time
from dataclasses import replace

import pytest

from repro.api import run_experiment
from repro.core import Study
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sweep import (
    ArtifactStore,
    NodeKind,
    SweepError,
    SweepRunner,
    SweepSpec,
)
from repro.util.errors import ConfigError

from .conftest import tiny_config

AXES = {"cache_min_traces": [100, 200]}
EXPERIMENTS = ("table2",)


def make_spec(base) -> SweepSpec:
    return SweepSpec(base=base, axes=AXES, experiments=EXPERIMENTS)


@pytest.fixture(scope="module")
def cold_and_warm(base_config, tmp_path_factory):
    """One cold run and one warm replay over a shared store."""
    store = tmp_path_factory.mktemp("sweep-store")
    spec = make_spec(base_config)

    started = time.perf_counter()
    cold = SweepRunner(spec, store).run()
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = SweepRunner(spec, store).run()
    warm_seconds = time.perf_counter() - started
    return cold, warm, cold_seconds, warm_seconds


class TestColdWarm:
    def test_cold_run_executes_every_node(self, cold_and_warm):
        cold, _, _, _ = cold_and_warm
        assert cold.stats.hits == 0
        assert cold.stats.misses == cold.stats.total
        assert cold.stats.executed == cold.stats.total
        assert cold.stats.skipped == 0

    def test_build_nodes_are_shared_across_points(self, cold_and_warm):
        # 2 points x 2 DCs but the axis is an experiment knob, so the
        # DAG carries one build per DC, not per (point, DC).
        cold, _, _, _ = cold_and_warm
        assert cold.stats.by_kind["build"]["misses"] == 2
        assert cold.stats.total == 2 + 2 * len(EXPERIMENTS)

    def test_warm_run_is_all_hits(self, cold_and_warm):
        _, warm, _, _ = cold_and_warm
        assert warm.stats.misses == 0
        assert warm.stats.executed == 0
        assert warm.stats.hit_rate == 1.0

    def test_warm_run_is_digest_identical(self, cold_and_warm):
        cold, warm, _, _ = cold_and_warm
        assert warm.combined_digest == cold.combined_digest
        assert warm.table_digests == cold.table_digests
        for point in cold.points:
            for experiment_id in EXPERIMENTS:
                assert (
                    warm.results[point.index][experiment_id].to_dict()
                    == cold.results[point.index][experiment_id].to_dict()
                )

    def test_warm_run_is_fast(self, cold_and_warm):
        _, _, cold_seconds, warm_seconds = cold_and_warm
        assert warm_seconds < 0.25 * cold_seconds, (
            f"warm replay took {warm_seconds:.2f}s vs cold "
            f"{cold_seconds:.2f}s — the cache is not saving work"
        )

    def test_matches_the_monolithic_pipeline(
        self, cold_and_warm, base_config
    ):
        """Cache-replayed tables == the classic Study path, byte for byte."""
        cold, _, _, _ = cold_and_warm
        point = cold.points[0]
        study = Study(point.config).build()
        for experiment_id in EXPERIMENTS:
            assert (
                cold.results[point.index][experiment_id].to_dict()
                == study.run(experiment_id).to_dict()
            )

    def test_grids_prefix_axis_values(self, cold_and_warm):
        cold, _, _, _ = cold_and_warm
        grids = cold.tables()
        assert len(grids) == len(EXPERIMENTS)
        grid = grids[0]
        assert grid.headers[0] == "cache_min_traces"
        assert {row[0] for row in grid.rows} == {100, 200}

    def test_outcome_payload_is_versioned(self, cold_and_warm):
        import json

        from repro.sweep import SWEEP_SCHEMA_VERSION

        cold, _, _, _ = cold_and_warm
        payload = cold.to_dict()
        assert payload["sweep_schema_version"] == SWEEP_SCHEMA_VERSION
        assert payload["combined_digest"] == cold.combined_digest
        assert payload["cache"]["total"] == cold.stats.total
        json.dumps(payload)  # must be JSON-serializable as-is


class TestBuildInputs:
    def test_redundancy_axis_builds_per_point(self, base_config, tmp_path):
        """A simulation field is a build input: no point reuses another's
        build, and each point's table is the one a direct run produces."""
        spec = SweepSpec(
            base=base_config,
            axes={"redundancy": ["r=1", "r=2"]},
            experiments=("fig5a",),
        )
        outcome = SweepRunner(spec, tmp_path).run()
        assert outcome.stats.by_kind["build"]["misses"] == 2 * len(
            base_config.dc_configs
        )
        tables = {
            point.config.redundancy: outcome.results[point.index]["fig5a"]
            for point in outcome.points
        }
        direct = run_experiment(
            "fig5a", config=replace(base_config, redundancy="r=2")
        )
        assert tables["r=2"].to_dict() == direct.to_dict()
        assert tables["r=1"].to_dict() != tables["r=2"].to_dict()

    def test_build_artifacts_keep_no_pass2_draws(self, base_config, tmp_path):
        """A cached build pickles its datasets and traffic, not the
        pass-2 draws an in-memory study keeps for its re-simulations."""
        spec = SweepSpec(base=base_config, axes={}, experiments=("table2",))
        SweepRunner(spec, tmp_path).run()
        store = ArtifactStore(tmp_path)
        builds = [
            store.get_blob(key) for key in store.keys()
            if store.get(key)["kind"] == "build"
        ]
        assert len(builds) == len(base_config.dc_configs)
        assert all(result.draws is None for result in builds)
        assert all(len(result.traces) for result in builds)


class TestSchedulers:
    def test_pool_run_matches_inline(
        self, cold_and_warm, base_config, tmp_path
    ):
        cold, _, _, _ = cold_and_warm
        outcome = SweepRunner(
            make_spec(base_config), tmp_path / "pool", workers=2
        ).run()
        assert outcome.combined_digest == cold.combined_digest
        assert outcome.stats.executed == outcome.stats.total

    def test_streamed_builds_match_monolithic(
        self, cold_and_warm, base_config, tmp_path
    ):
        cold, _, _, _ = cold_and_warm
        outcome = SweepRunner(
            make_spec(base_config), tmp_path / "streamed", chunk_epochs=1
        ).run()
        assert outcome.combined_digest == cold.combined_digest


class KillAfter:
    """node_hook that simulates ctrl-C after N successful dispatches."""

    def __init__(self, after: int):
        self.after = after
        self.calls = 0

    def __call__(self, node, attempt):
        if self.calls >= self.after:
            raise KeyboardInterrupt
        self.calls += 1


class TestResume:
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_kill_and_resume_is_digest_identical(
        self, base_config, tmp_path, with_faults
    ):
        base = base_config
        if with_faults:
            base = replace(
                base,
                fault_plan=FaultPlan(
                    events=(
                        FaultEvent(
                            kind="bs_crash", start_s=10, end_s=40, target=0
                        ),
                    )
                ),
            )
        spec = make_spec(base)
        store = tmp_path / f"resume-{with_faults}"

        # Reference: one uninterrupted run in a separate store.
        reference = SweepRunner(spec, tmp_path / f"ref-{with_faults}").run()

        # Interrupted run: dies after 3 nodes committed.
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(spec, store, node_hook=KillAfter(3)).run()

        # Resume over the same store: partial work is reused ...
        resumed = SweepRunner(spec, store).run()
        assert resumed.stats.hits == 3
        assert resumed.stats.executed == resumed.stats.total - 3
        # ... and the outcome is indistinguishable from the single shot.
        assert resumed.combined_digest == reference.combined_digest
        assert resumed.table_digests == reference.table_digests


class FlakyOnFirstTry:
    """node_hook that fails every node's first attempt."""

    def __init__(self):
        self.seen = set()

    def __call__(self, node, attempt):
        if node.key not in self.seen:
            self.seen.add(node.key)
            raise RuntimeError("transient hiccup")


class TestRetries:
    def test_transient_failures_are_retried(self, base_config, tmp_path):
        outcome = SweepRunner(
            make_spec(base_config),
            tmp_path / "flaky",
            retries=1,
            node_hook=FlakyOnFirstTry(),
        ).run()
        assert outcome.stats.retries == outcome.stats.total
        assert outcome.stats.executed == outcome.stats.total

    def test_exhausted_retries_raise_sweep_error(
        self, base_config, tmp_path
    ):
        def always_fail(node, attempt):
            raise RuntimeError("permanent")

        with pytest.raises(SweepError, match="failed after 2 attempt"):
            SweepRunner(
                make_spec(base_config),
                tmp_path / "dead",
                retries=1,
                node_hook=always_fail,
            ).run()

    def test_invalid_knobs_rejected(self, base_config, tmp_path):
        with pytest.raises(ConfigError):
            SweepRunner(make_spec(base_config), tmp_path, workers=0)
        with pytest.raises(ConfigError):
            SweepRunner(make_spec(base_config), tmp_path, retries=-1)

    def test_exhausted_retries_chain_cause_and_name_key(
        self, base_config, tmp_path
    ):
        """The SweepError names the node key and chains the original.

        Regression: the old message had the label only (not unique
        across chunking variants) and post-mortems lost the failing
        node's store key; the chained ``__cause__`` keeps the final
        attempt's real traceback.
        """
        def always_fail(node, attempt):
            raise RuntimeError("permanent meltdown")

        with pytest.raises(SweepError, match=r"\(key [0-9a-f]{12}\)") as info:
            SweepRunner(
                make_spec(base_config),
                tmp_path / "chained",
                retries=1,
                node_hook=always_fail,
            ).run()
        cause = info.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "permanent meltdown" in str(cause)
        assert cause.__traceback__ is not None

    def test_pool_hook_failures_count_as_attempts(
        self, base_config, tmp_path
    ):
        """Pool path honours the hook contract: failures retry, not abort.

        Regression: the pool scheduler called the hook outside its
        retry handling, so a transient hook exception escaped as a raw
        RuntimeError instead of consuming one attempt.
        """
        outcome = SweepRunner(
            make_spec(base_config),
            tmp_path / "pool-flaky",
            workers=2,
            retries=1,
            node_hook=FlakyOnFirstTry(),
        ).run()
        assert outcome.stats.retries == outcome.stats.total
        assert outcome.stats.executed == outcome.stats.total

    def test_pool_exhausted_retries_name_key(self, base_config, tmp_path):
        def always_fail(node, attempt):
            raise RuntimeError("permanent")

        with pytest.raises(SweepError, match=r"\(key [0-9a-f]{12}\)") as info:
            SweepRunner(
                make_spec(base_config),
                tmp_path / "pool-dead",
                workers=2,
                retries=1,
                node_hook=always_fail,
            ).run()
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_failed_attempts_do_not_pollute_telemetry(
        self, base_config, tmp_path, monkeypatch
    ):
        """A retried node's failed attempt must not leak partial metrics.

        Regression: the inline scheduler ran attempts directly against
        the parent telemetry handle, so a node that recorded some work
        and then crashed double-counted once its retry succeeded.  The
        fix runs every attempt against a fresh worker handle and merges
        only the successful one.
        """
        from repro.obs.runtime import Telemetry, get_telemetry, set_telemetry
        from repro.sweep import orchestrator as orch

        real_build = orch._NODE_RUNNERS[NodeKind.BUILD]
        failed_once = set()

        def crash_mid_run_once(payload):
            if payload["key"] in failed_once:
                return real_build(payload)
            failed_once.add(payload["key"])
            # Partial work a real build would have recorded before dying,
            # under the handle the scheduler's ``run_traced`` installed;
            # it must never reach the parent's artifact.
            get_telemetry().counter("test.partial_work").inc(1000)
            raise RuntimeError("mid-run crash")

        monkeypatch.setitem(
            orch._NODE_RUNNERS, NodeKind.BUILD, crash_mid_run_once
        )
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            outcome = SweepRunner(
                make_spec(base_config), tmp_path / "pollute", retries=1
            ).run()
        finally:
            set_telemetry(previous)
        counters = {
            c["name"]: c["value"]
            for c in telemetry.snapshot()["metrics"]["counters"]
        }
        assert "test.partial_work" not in counters
        assert outcome.stats.retries == len(failed_once) == 2
        assert outcome.stats.executed == outcome.stats.total


class TestDemandDrivenScheduling:
    def test_unneeded_misses_are_skipped(self, base_config, tmp_path):
        """A missed build whose experiments all hit is not rebuilt."""
        store = tmp_path / "skip"
        spec = make_spec(base_config)
        runner = SweepRunner(spec, store)
        cold = runner.run()

        # Drop one build: every experiment reading it is still a cache
        # hit, so nothing needs the build and it is skipped, not rerun.
        builds = [
            node
            for node in runner._dag(spec.points())
            if node.kind is NodeKind.BUILD
        ]
        runner.store.discard(builds[0].key)

        again = SweepRunner(spec, store).run()
        assert again.stats.misses == 1
        assert again.stats.skipped == 1
        assert again.stats.executed == 0
        assert again.combined_digest == cold.combined_digest
