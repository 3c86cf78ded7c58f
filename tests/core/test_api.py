"""The stable facade: ``repro.api`` and the package-root re-exports."""

import json

import pytest

from repro.api import (
    RESULT_SCHEMA_VERSION,
    SCALE_NAMES,
    ExperimentResult,
    StudyConfig,
    load_result,
    run_experiment,
    run_study,
    save_results,
)
from repro.util.errors import ConfigError
from repro.workload import FleetConfig


def tiny_config(seed=3) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        duration_seconds=90,
        trace_sampling_rate=1.0 / 4.0,
        dc_configs=[
            FleetConfig(
                dc_id=0,
                num_users=4,
                num_vms=10,
                num_compute_nodes=4,
                num_storage_nodes=3,
            )
        ],
        wt_cov_windows=(30, 60),
        cache_min_traces=50,
    )


class TestSurface:
    def test_root_reexports_lazily(self):
        import repro

        for name in (
            "run_experiment", "run_study", "sweep", "load_result",
            "save_results", "StudyConfig", "ExperimentResult",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
        assert "run_experiment" in dir(repro)

    def test_root_rejects_unknown_names(self):
        import repro

        with pytest.raises(AttributeError):
            repro.not_a_real_export

    def test_scale_names_cover_the_presets(self):
        assert SCALE_NAMES == ("small", "medium", "large", "xlarge")


class TestRun:
    @pytest.fixture(scope="class")
    def table2(self):
        return run_experiment("table2", config=tiny_config())

    def test_run_experiment(self, table2):
        assert table2.experiment_id == "table2"
        assert table2.rows

    def test_run_experiment_is_deterministic(self, table2):
        again = run_experiment("table2", config=tiny_config())
        assert again.to_dict() == table2.to_dict()

    def test_run_study_preserves_order(self):
        results = run_study(
            ["table3", "table2"], config=tiny_config()
        )
        assert list(results) == ["table3", "table2"]
        assert all(
            isinstance(r, ExperimentResult) for r in results.values()
        )

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(ConfigError):
            run_experiment(
                "table2", config=tiny_config(), duration_seconds=60
            )

    def test_unknown_override_fails_before_building(self):
        with pytest.raises(ConfigError, match="unknown StudyConfig"):
            run_experiment("table2", duration_secondz=60)


class TestRedundancySurface:
    def test_run_experiment_accepts_redundancy_overrides(self):
        result = run_experiment(
            "table2",
            config=None,
            seed=3,
            duration_seconds=60,
            dc_configs=[
                FleetConfig(
                    dc_id=0,
                    num_users=4,
                    num_vms=10,
                    num_compute_nodes=4,
                    num_storage_nodes=3,
                )
            ],
            wt_cov_windows=(30, 60),
            cache_min_traces=50,
            redundancy="r=2",
            read_policy="least_loaded",
        )
        assert result.rows

    def test_bad_redundancy_spec_fails_before_building(self):
        with pytest.raises(ConfigError, match="malformed redundancy"):
            run_experiment("table2", redundancy="raid=5")

    def test_bad_read_policy_fails_before_building(self):
        with pytest.raises(ConfigError, match="unknown read policy"):
            run_experiment("table2", read_policy="round_robin")

    def test_study_config_carries_the_fields(self):
        config = tiny_config()
        assert config.redundancy is None
        assert config.read_policy == "primary"
        sim = config.simulation_config()
        assert sim.redundancy is None
        assert sim.read_policy == "primary"

    def test_save_results_emits_redundancy_keys(self, tmp_path):
        result = ExperimentResult(
            experiment_id="table2",
            title="demo",
            headers=["metric"],
            rows=[["x"]],
        )
        path = save_results(
            [result],
            tmp_path / "res.json",
            seed=7,
            redundancy="r=3",
            read_policy="water_filling",
        )
        payload = json.loads(path.read_text())
        assert payload["redundancy"] == "r=3"
        assert payload["read_policy"] == "water_filling"

    def test_validator_accepts_v1_and_rejects_bad_keys(self):
        from repro.core.result_schema import validate_result_payload

        v1 = {"result_schema_version": 1, "results": []}
        assert validate_result_payload(v1) == []
        bad = {
            "result_schema_version": 2,
            "results": [],
            "redundancy": 3,
            "read_policy": ["primary"],
        }
        problems = validate_result_payload(bad)
        assert any("redundancy" in p for p in problems)
        assert any("read_policy" in p for p in problems)

    def test_unsupported_versions_are_reported(self):
        from repro.core.result_schema import validate_result_payload

        problems = validate_result_payload(
            {"result_schema_version": 99, "results": []}
        )
        assert any("unsupported" in p for p in problems)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        result = ExperimentResult(
            experiment_id="table2",
            title="demo",
            headers=["metric", "value"],
            rows=[["x", 1.5]],
        )
        path = save_results([result], tmp_path / "res.json", seed=7)
        payload = json.loads(path.read_text())
        assert payload["result_schema_version"] == RESULT_SCHEMA_VERSION
        loaded = load_result(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == result.to_dict()

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such results file"):
            load_result(tmp_path / "absent.json")

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_result(path)

    def test_load_lists_schema_problems(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(
            json.dumps(
                {
                    "result_schema_version": 999,
                    "results": [{"experiment_id": "t"}],
                }
            )
        )
        with pytest.raises(ConfigError) as excinfo:
            load_result(path)
        message = str(excinfo.value)
        assert "result_schema_version" in message
        assert "missing 'title'" in message


class TestStreamingRule:
    """The API streams the large tiers as the CLI does (no build runs)."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import repro.api as api
        import repro.sweep as sweep_package

        seen = {}

        class Stop(Exception):
            pass

        class FakeStudy:
            def __init__(self, config, **kwargs):
                seen["chunk_epochs"] = kwargs.get("chunk_epochs")

            def build(self):
                raise Stop

            def cleanup(self):
                seen["cleaned"] = True

        class FakeRunner:
            def __init__(self, spec, store_dir, **kwargs):
                seen["chunk_epochs"] = kwargs["chunk_epochs"]

            def run(self):
                return "outcome"

        monkeypatch.setattr(api, "Study", FakeStudy)
        monkeypatch.setattr(sweep_package, "SweepRunner", FakeRunner)
        seen["Stop"] = Stop
        return seen

    @pytest.mark.parametrize(
        "call",
        [
            lambda api, **kw: api.run_experiment("table2", **kw),
            lambda api, **kw: api.run_study(["table2"], **kw),
            lambda api, **kw: api.plan_balance(**kw),
        ],
        ids=["run_experiment", "run_study", "plan_balance"],
    )
    @pytest.mark.parametrize(
        "kwargs, chunk_epochs",
        [
            ({"scale": "small"}, None),
            ({"scale": "large"}, 4),
            ({"scale": "xlarge"}, 4),
            ({"config": StudyConfig.scale("large")}, None),
        ],
        ids=["small", "large", "xlarge", "explicit-config"],
    )
    def test_study_builds(self, seen, call, kwargs, chunk_epochs):
        import repro.api as api

        with pytest.raises(seen["Stop"]):
            call(api, **kwargs)
        assert seen["chunk_epochs"] == chunk_epochs
        # Temp shard stores are purged even when the build fails.
        assert seen["cleaned"]

    @pytest.mark.parametrize(
        "kwargs, chunk_epochs",
        [
            ({"scale": "small"}, None),
            ({"scale": "large"}, 4),
            ({"scale": "large", "chunk_epochs": 2}, 2),
            ({"base": StudyConfig.scale("large")}, None),
            ({"base": StudyConfig.scale("small"), "chunk_epochs": 3}, 3),
        ],
    )
    def test_sweep(self, seen, kwargs, chunk_epochs):
        import repro.api as api

        outcome = api.sweep(
            {"seed": [1]}, experiments=["table2"], **kwargs
        )
        assert outcome == "outcome"
        assert seen["chunk_epochs"] == chunk_epochs

    def test_sweep_rejects_a_zero_chunk(self, seen):
        import repro.api as api

        with pytest.raises(ConfigError, match="must be >= 1"):
            api.sweep(
                {"seed": [1]}, experiments=["table2"], chunk_epochs=0
            )
