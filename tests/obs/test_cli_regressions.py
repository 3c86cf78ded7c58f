"""Regressions for the ``repro obs`` CLI on edge-case artifacts.

The headline fix: an artifact with **zero spans** (or a stray non-list
value under ``metrics``) must never traceback out of ``obs validate`` /
``obs report`` — validate flags problems with exit code 1, report
renders whatever it can.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.runtime import Telemetry
from repro.obs.schema import METRIC_KINDS, validate_telemetry


@pytest.fixture()
def zero_span_artifact(tmp_path):
    """A real run artifact that happens to record no spans at all."""
    t = Telemetry(enabled=True)
    t.meta.update(command="run", seed=3)
    t.counter("sim.traces.ios", dc=0, op="read").inc(5)
    t.gauge("engine.peak_rss_bytes", dc=0).set_max(123456)
    return t.write(tmp_path / "no-spans.json")


class TestZeroSpans:
    def test_validate_ok(self, zero_span_artifact, capsys):
        assert main(["obs", "validate", str(zero_span_artifact)]) == 0
        out = capsys.readouterr().out
        assert "0 spans" in out

    def test_report_does_not_crash(self, zero_span_artifact, capsys):
        # The regression: report used to assume at least one span/list.
        assert main(["obs", "report", str(zero_span_artifact)]) == 0
        out = capsys.readouterr().out
        assert "sim.traces.ios" in out

    def test_report_survives_missing_spans_key(self, tmp_path, capsys):
        payload = json.loads(zero_span_path(tmp_path).read_text())
        del payload["spans"]
        path = tmp_path / "stripped.json"
        path.write_text(json.dumps(payload))
        # Invalid per schema, but report is best-effort by design.
        assert validate_telemetry(payload) != []
        assert main(["obs", "report", str(path)]) == 0


def zero_span_path(tmp_path):
    t = Telemetry(enabled=True)
    t.counter("sim.traces.ios", dc=0).inc(1)
    return t.write(tmp_path / "zero.json")


class TestNonListMetrics:
    def test_validate_flags_scalar_metric_kind(self, tmp_path, capsys):
        path = zero_span_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["metrics"]["total"] = 7  # scalar under 'metrics'
        path.write_text(json.dumps(payload))
        # Used to pass validation, then crash the series count / report.
        assert main(["obs", "validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "metrics.total" in err

    def test_report_degrades_gracefully(self, tmp_path, capsys):
        path = zero_span_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["metrics"]["counters"] = {"oops": "not a list"}
        path.write_text(json.dumps(payload))
        assert main(["obs", "report", str(path)]) == 0

    def test_schema_error_message_names_the_kind(self):
        errors = validate_telemetry({
            "schema_version": 1,
            "meta": {},
            "metrics": {"total": 7},
            "spans": [],
        })
        assert any("metrics.total" in e for e in errors)
        assert all(kind in ("counters", "gauges", "histograms")
                   for kind in METRIC_KINDS)


class TestClosedPipe:
    def test_report_into_a_closed_pipe_exits_cleanly(self, tmp_path):
        # Enough rows that the report outgrows any pipe buffer, so the
        # writer is still writing when the reader goes away.
        t = Telemetry(enabled=True)
        for index in range(4000):
            t.counter("bench.pipe.rows", row=index).inc(index)
        path = t.write(tmp_path / "wide.json")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "obs", "report", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, stderr
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
