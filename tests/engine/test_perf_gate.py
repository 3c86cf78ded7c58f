"""The perfbench A/B gate, judged over synthetic perfbench records.

Nothing here starts perfbench: the records are built in memory, and the
command-line tests replace :func:`collect` (the only part that runs
subprocesses) with a function returning them.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # direct pytest invocation safety
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks import perf_gate  # noqa: E402
from benchmarks.perf_gate import (  # noqa: E402
    GATED,
    MAX_RATIO,
    TRACE_OVERHEAD,
    GateError,
    evaluate,
    judge,
    main,
    slowed,
    synthetic_records,
    write_summary,
)

LAYERS = [(w, layer) for w, layers in GATED.items() for layer in layers]


@pytest.fixture
def base():
    return synthetic_records()


def _failures(base, head):
    return evaluate(base, head)[2]


def _with_overhead(records, values):
    for runs in records.values():
        for run, value in zip(runs, values):
            run["metrics"][TRACE_OVERHEAD]["value"] = value
    return records


class TestCompare:
    def test_baseline_passes_itself(self, base):
        rows, _, failures = evaluate(base, base)
        assert failures == []
        assert [(r["workload"], r["layer"]) for r in rows] == LAYERS
        assert all(r["ratio"] == 1.0 for r in rows)

    def test_2x_slowdown_fails_every_gate(self, base):
        for workload, layer in LAYERS:
            failures = _failures(base, slowed(base, workload, layer, 2.0))
            assert len(failures) == 1
            assert failures[0].startswith("REGRESSION")
            assert f"{workload} {layer}" in failures[0]

    def test_gate_is_one_sided(self, base):
        for workload, layer in LAYERS:
            assert _failures(base, slowed(base, workload, layer, 0.25)) == []

    def test_slowdown_within_tolerance_passes(self, base):
        for workload, layer in LAYERS:
            head = slowed(base, workload, layer, MAX_RATIO * 0.95)
            assert _failures(base, head) == []

    def test_single_section_regression_is_localized(self, base):
        head = slowed(base, "study_small", "cluster.pass1_s", 3.0)
        rows, _, failures = evaluate(base, head)
        assert [r["layer"] for r in rows if r["failed"]] == ["cluster.pass1_s"]
        assert len(failures) == 1

    def test_doubled_preparation_fails_beside_a_larger_replay(self, base):
        # Preparation is the smaller part of the cache work: gated on its
        # own, its 2x shows even where the sum of the two moves 1.25x.
        for run in base["study_small"]:
            run["metrics"]["cache.replay_s"]["value"] = 3.0
        (failure,) = _failures(base, slowed(base, "study_small", "cache.prepare_s", 2.0))
        assert "study_small cache.prepare_s" in failure

    def test_median_over_seeds_forgives_one_outlier(self, base):
        head = synthetic_records()
        head["study_small"][0]["metrics"]["cluster.pass1_s"]["value"] = 5.0
        assert _failures(base, head) == []

    def test_missing_section_is_a_failure(self, base):
        head = synthetic_records()
        del head["build_large_streamed"][2]["metrics"]["engine.pass1_s"]
        with pytest.raises(GateError, match="engine.pass1_s"):
            evaluate(base, head)
        assert judge(base, head) == 2

    def test_a_zero_base_layer_cannot_be_judged(self, base):
        zero = slowed(base, "build_large_streamed", "engine.pass1_s", 0.0)
        with pytest.raises(GateError, match="nothing to compare"):
            evaluate(zero, base)

    def test_incorrect_head_record_fails(self, base):
        head = synthetic_records()
        head["study_small"][3]["correct"] = False
        (failure,) = _failures(base, head)
        assert "not correct" in failure
        assert judge(base, head) == 1

    def test_base_correctness_is_not_judged(self, base):
        wrong = synthetic_records()
        wrong["study_small"][0]["correct"] = False
        assert _failures(wrong, base) == []

    def test_median_trace_overhead_above_ceiling_fails(self, base):
        head = _with_overhead(synthetic_records(), [30, 40, 26, 5, 5])
        (failure,) = _failures(base, head)
        assert TRACE_OVERHEAD in failure
        # One noisy traced run is not enough.
        head = _with_overhead(synthetic_records(), [90, 40, 5, 5, 5])
        assert _failures(base, head) == []


class TestCli:
    @pytest.fixture
    def collected(self, monkeypatch, base):
        """Make ``main`` judge ``(base, head)`` instead of running perfbench."""
        def use(head):
            monkeypatch.setattr(perf_gate, "collect", lambda tree: (base, head))

        return use

    def test_self_test_exits_zero(self, capsys):
        assert main(["--self-test"]) == 0
        assert "self-test ok" in capsys.readouterr().out

    def test_identical_candidate_exits_zero(self, collected, base, capsys):
        collected(base)
        assert main(["--base-tree", "."]) == 0
        assert "perf-gate passed" in capsys.readouterr().out

    def test_regressed_candidate_exits_one(self, collected, base, capsys):
        collected(slowed(base, "build_large_streamed", "engine.pass1_s", 2.0))
        assert main(["--base-tree", "."]) == 1
        assert "REGRESSION build_large_streamed engine.pass1_s" in (
            capsys.readouterr().err
        )

    def test_structural_only_failure_exits_two(self, collected):
        collected({})
        assert main(["--base-tree", "."]) == 2

    def test_missing_base_tree_exits_two(self, tmp_path, capsys):
        assert main(["--base-tree", str(tmp_path / "nope")]) == 2
        assert "not a checkout" in capsys.readouterr().err

    def test_base_tree_is_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSummary:
    def test_summary_table_written_and_appended(self, base, tmp_path):
        for run in base["study_small"]:
            run["metrics"]["exp.fig2d_s"] = {"value": 2.0, "unit": "s"}
        rows, overhead, _ = evaluate(base, base)
        summary = tmp_path / "summary.md"
        write_summary(summary, base, base, rows, overhead)
        text = summary.read_text()
        assert "### Perf gate" in text
        for workload, layer in LAYERS:
            assert f"#### {workload}" in text
            assert f"| `{layer}` |" in text
        assert text.count("| 1 | 1 | 1.00 | ✅ ok |") == len(LAYERS)
        # An ungated BENCHMARK.json metric is reported, never gated.
        assert "| `exp.fig2d_s` | 2 | 2 | 1.00 |  |" in text
        # Metrics at 0 (here: absent) on both sides are left out.
        assert "`live.topk_s`" not in text
        write_summary(summary, base, base, rows, overhead)  # appends
        assert summary.read_text().count("### Perf gate") == 2

    def test_summary_marks_regressions(self, base, tmp_path):
        head = slowed(base, "study_small", "cluster.pass1_s", 2.0)
        rows, overhead, _ = evaluate(base, head)
        summary = tmp_path / "summary.md"
        write_summary(summary, base, head, rows, overhead)
        assert "| `cluster.pass1_s` | 1 | 2 | 2.00 | ❌ regression |" in (
            summary.read_text()
        )

    def test_summary_flag_from_cli(self, monkeypatch, base, tmp_path):
        monkeypatch.setattr(perf_gate, "collect", lambda tree: (base, base))
        summary = tmp_path / "summary.md"
        assert main(["--base-tree", ".", "--summary", str(summary)]) == 0
        assert "### Perf gate" in summary.read_text()
