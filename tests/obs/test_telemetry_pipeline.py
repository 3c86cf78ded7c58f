"""End-to-end telemetry: worker-count parity, CLI round-trip, golden run.

The headline guarantee under test: the merged **metrics** of an
``N``-worker sweep are byte-identical to a 1-worker sweep (spans and
the node-time histogram measure the clock and are exempt).  Plus the
``repro obs`` CLI surface over a real artifact and a slow golden-run
smoke through ``repro run --telemetry``.
"""

import json

import pytest

from repro.cli import main
from repro.core import Study, StudyConfig
from repro.obs.runtime import Telemetry, telemetry_session
from repro.obs.schema import validate_telemetry
from repro.sweep import SweepRunner, SweepSpec
from repro.workload import FleetConfig


def _tiny_config(seed=11) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        duration_seconds=60,
        trace_sampling_rate=1.0 / 5.0,
        dc_configs=[
            FleetConfig(
                dc_id=dc,
                num_users=4,
                num_vms=10,
                num_compute_nodes=4,
                num_storage_nodes=4,
            )
            for dc in range(2)
        ],
        wt_cov_windows=(30, 60),
        migration_window_scales=(15, 60),
        balancer_period_seconds=15,
        prediction_warmup_periods=2,
        prediction_epoch_periods=2,
        cache_min_traces=50,
        hot_rate_window_seconds=30.0,
    )


def _metrics_for_workers(workers: int, store) -> str:
    spec = SweepSpec(base=_tiny_config(), axes={}, experiments=("table2",))
    with telemetry_session(seed=0) as telemetry:
        SweepRunner(spec, store, workers=workers).run()
        snapshot = telemetry.registry.snapshot()
    snapshot["histograms"] = [
        h for h in snapshot["histograms"] if h["name"] != "sweep.node_seconds"
    ]
    return json.dumps(snapshot, sort_keys=True)


class TestWorkerParity:
    def test_multi_dc_fanout_metrics_byte_identical(self, tmp_path):
        # workers=2 builds the two DCs in two sweep worker processes,
        # whose snapshots merge back through run_traced/merge_traced.
        one = _metrics_for_workers(1, tmp_path / "one")
        assert '"sim.traces.ios"' in one  # the nodes' metrics came back
        assert one == _metrics_for_workers(2, tmp_path / "two")

    def test_metrics_are_nonempty_and_named_per_catalogue(self):
        with telemetry_session(seed=0) as telemetry:
            Study(_tiny_config()).build()
            snap = telemetry.registry.snapshot()
        counters = {c["name"] for c in snap["counters"]}
        assert "sim.traces.ios" in counters
        assert "workload.vds_generated" in counters
        gauges = {g["name"] for g in snap["gauges"]}
        assert "sim.pass1.wt_grid_cells" in gauges
        histograms = {h["name"] for h in snap["histograms"]}
        assert "sim.traces.ios_per_vd" in histograms


@pytest.fixture()
def artifact(tmp_path):
    t = Telemetry(enabled=True)
    t.meta.update(command="run", experiment="table2", seed=7)
    t.counter("sim.traces.ios", dc=0, op="read").inc(64)
    t.histogram("sim.traces.ios_per_vd", dc=0).observe(64)
    with t.span("study.build", workers=1):
        pass
    return t.write(tmp_path / "telemetry.json")


class TestObsCli:
    def test_validate_ok(self, artifact, capsys):
        assert main(["obs", "validate", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_validate_rejects_broken_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": "nope"}))
        assert main(["obs", "validate", str(bad)]) == 1

    def test_validate_missing_file(self, capsys):
        assert main(["obs", "validate", "/does/not/exist.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_renders_tables(self, artifact, capsys):
        assert main(["obs", "report", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "study.build" in out
        assert "sim.traces.ios" in out

    def test_export_chrome_trace_to_file(self, artifact, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["obs", "export", str(artifact), "--format", "chrome-trace",
             "-o", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(
            e["ph"] == "X" and e["name"] == "study.build"
            for e in doc["traceEvents"]
        )

    def test_export_prometheus_to_stdout(self, artifact, capsys):
        assert main(["obs", "export", str(artifact), "--format",
                     "prometheus"]) == 0
        assert "repro_sim_traces_ios_total" in capsys.readouterr().out

    def test_export_jsonl(self, artifact, capsys):
        assert main(["obs", "export", str(artifact), "--format",
                     "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line) for line in lines)


@pytest.mark.slow
class TestGoldenRun:
    def test_run_with_telemetry_writes_valid_artifact(
        self, tmp_path, capsys
    ):
        path = tmp_path / "telemetry.json"
        code = main(
            ["run", "table2", "--scale", "small", "--telemetry", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert validate_telemetry(payload) == []
        assert payload["meta"]["command"] == "run"
        assert payload["meta"]["experiment"] == "table2"
        span_names = {s["name"] for s in payload["spans"]}
        assert "study.build" in span_names
        assert "study.experiment" in span_names
        counters = {c["name"] for c in payload["metrics"]["counters"]}
        assert "study.experiments_run" in counters
        assert "sim.traces.ios" in counters
        # And the artifact round-trips through the obs CLI.
        assert main(["obs", "validate", str(path)]) == 0
        assert main(["obs", "report", str(path)]) == 0
