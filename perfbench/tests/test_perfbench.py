"""The benchmark's own tests: attribution wiring and output checks.

These run the smallest inputs in-process (a few minutes in all); they
are not part of the repository's unit suite.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import time

import layers
import pytest
from worker import run_iteration
from workloads import WORKLOADS

#: Seconds added to every ``simulate_rebinding`` call by the delay test.
DELAY_S = 0.5
#: The smallest input size each workload has.
SIZE = {"study_small": "full", "build_large_streamed": "reduced",
        "live_replay": "reduced"}


def _delayed(original):
    def slow(*args, **kwargs):
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    return slow


def _delay_rebinding():
    return layers.replaced(
        "repro.balancer.wt", "simulate_rebinding", _delayed
    )


# -- attribution ---------------------------------------------------------------


def test_patching_reaches_names_imported_by_name():
    import repro.balancer.wt as wt
    import repro.core.experiments.hypervisor as hypervisor

    original = wt.simulate_rebinding
    with layers.Tracing():
        assert hypervisor.simulate_rebinding is not original
        assert wt.simulate_rebinding is hypervisor.simulate_rebinding
    assert hypervisor.simulate_rebinding is original
    assert wt.simulate_rebinding is original


def test_self_time_subtracts_direct_children_per_thread():
    spans = [
        {"name": "c", "tid": 1, "depth": 1, "dur_us": 2e6},
        {"name": "c", "tid": 1, "depth": 1, "dur_us": 1e6},
        {"name": "x", "tid": 2, "depth": 0, "dur_us": 4e6},
        {"name": "p", "tid": 1, "depth": 0, "dur_us": 5e6},
    ]
    got = [(span["name"], round(s, 6)) for span, s in layers.self_times(spans)]
    assert got == [("c", 2.0), ("c", 1.0), ("x", 4.0), ("p", 2.0)]


def test_experiment_times_and_memory_owners_come_from_program_spans():
    mib = 1024 * 1024

    def span(name, dur_s, peak_mib, **labels):
        labels["peak_rss_bytes"] = peak_mib * mib
        return {"name": name, "tid": 1, "depth": 0,
                "dur_us": dur_s * 1e6, "labels": labels}

    snapshot = {
        "spans": [
            span("study.build", 1.0, 300),
            span("study.experiment", 2.0, 800, experiment="redundancy_cov"),
            span("study.experiment", 0.5, 800, experiment="table2"),
            span("study.experiment", 0.25, 900, experiment="fig3a"),
        ],
        "metrics": {"counters": []},
    }
    out = layers.layer_metrics(snapshot, [2 * mib], {}, 100 * mib)
    assert out["study.build_hwm_mib"] == 200
    assert out["exp.redundancy_cov_s"] == 2.0
    assert out["exp.redundancy_cov_hwm_mib"] == 500
    assert out["exp.other_s"] == 0.75
    assert out["exp.other_hwm_mib"] == 100
    assert out["engine.merge_hwm_mib"] == 2


def test_panels_draw_distinct_inputs_from_the_middle_of_the_cost_order():
    import json

    import run
    from worker import REFERENCE_SEEDS

    with open(run.COSTS_PATH) as handle:
        costs = json.load(handle)
    for workload, module in WORKLOADS.items():
        seeds = sorted(map(int, costs[workload]))
        assert seeds == list(range(REFERENCE_SEEDS))
        cost = {int(s): c for s, c in costs[workload].items()}
        order = sorted(cost, key=lambda s: (cost[s], s))
        first = (len(order) - run.POOL) // 2
        outside = set(order) - set(order[first:first + run.POOL])
        seconds = 4 * module.NOMINAL_S
        panels = [run.panel(workload, seed, seconds) for seed in range(10)]
        assert run.panel(workload, 3, seconds) == panels[3]
        assert all(len(p) == len(set(p)) == 4 for p in panels)
        assert not outside & {s for p in panels for s in p}
        # Consecutive seeds share no input until the pool wraps around.
        assert not set(panels[0]) & set(panels[1])
        assert len(run.panel(workload, 0, 100 * module.NOMINAL_S)) == run.POOL


def test_delay_in_rebinding_shows_where_the_table_says():
    base = run_iteration("study_small", 1, "traced", "full")
    base_wall = run_iteration("study_small", 1, "timed", "full")["wall_s"]
    live_base = run_iteration("live_replay", 1, "traced", SIZE["live_replay"])
    with _delay_rebinding():
        slow = run_iteration("study_small", 1, "traced", "full")
        slow_wall = run_iteration(
            "study_small", 1, "timed", "full"
        )["wall_s"]
        live_slow = run_iteration("live_replay", 1, "traced", SIZE["live_replay"])

    calls = base["layers"]["balancer.rebinding_calls"]
    injected = calls * DELAY_S
    assert calls > 0
    assert slow["layers"]["balancer.rebinding_calls"] == calls
    grown = (
        slow["layers"]["balancer.rebinding_s"]
        - base["layers"]["balancer.rebinding_s"]
    )
    assert grown == pytest.approx(injected, rel=0.2)
    # The delay is in no other layer's self time ...
    assert slow["layers"]["balancer.dispatch_s"] < (
        base["layers"]["balancer.dispatch_s"] + 0.25 * injected
    )
    # ... but it is on the study's critical path.
    assert slow_wall - base_wall > 0.5 * injected
    assert slow["digest"] == base["digest"]

    # live_replay never calls the balancer.
    for run in (live_base, live_slow):
        assert run["layers"]["balancer.rebinding_calls"] == 0
        assert run["layers"]["balancer.rebinding_s"] == 0
    assert live_slow["wall_s"] < live_base["wall_s"] + 0.5 * injected


# -- output checks -------------------------------------------------------------


#: Per-layer counts that must repeat exactly for one input.
COUNTS = (
    list(layers.CALLS)
    + list(layers.COUNTERS)
    + ["engine.shard_bytes", "live.events", "live.windows"]
)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_passes_every_output_check(workload):
    timed = run_iteration(workload, 2, "timed", SIZE[workload])
    traced = [
        run_iteration(workload, 2, "traced", SIZE[workload]) for _ in "ab"
    ]
    for run in [timed] + traced:
        assert run["problems"] == []
        assert run["failed"] == 0
        assert run["attempted"] > 0
        assert run["digest"] == timed["digest"]
    first, second = (run["layers"] for run in traced)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}


def _observed(workload, seed=2):
    module = WORKLOADS[workload]
    state = module.setup(seed, SIZE[workload])
    return module, module.observe(state, module.timed(state, traced=False))


def test_study_check_counts_each_wrong_experiment():
    from worker import reference_for

    module, observed = _observed("study_small")
    reference = reference_for("study_small", "full", 2)
    assert module.failures(observed, reference) == 0
    wrong = copy.deepcopy(reference)
    wrong["experiments"]["fig2d"] = "0" * 64
    assert module.failures(observed, wrong) == 1
    wrong = copy.deepcopy(reference)
    wrong["dcs"][0] = "0" * 64
    assert module.failures(observed, wrong) == observed["ops"]


def test_streamed_check_counts_each_wrong_dc():
    from worker import reference_for

    module, observed = _observed("build_large_streamed")
    reference = reference_for("build_large_streamed", SIZE["build_large_streamed"], 2)
    assert module.failures(observed, reference) == 0
    wrong = copy.deepcopy(reference)
    wrong["dcs"][1] = "0" * 64
    assert module.failures(observed, wrong) == 1


def test_live_check_counts_wrong_windows_and_lost_events():
    module, observed = _observed("live_replay")
    assert module.failures(observed, None) == 0
    wrong = copy.deepcopy(observed)
    wrong["digests"]["window_list"][3] = "0" * 64
    wrong["dropped"] = 5
    assert module.failures(wrong, None) == 6


def test_benchmark_json_names_what_the_benchmark_prints():
    import json
    import os

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, layers.unit_of(name)) for name in layers.metric_names()
    ]
