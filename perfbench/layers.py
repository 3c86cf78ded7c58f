"""Per-layer attribution, measured from outside the program.

Nothing here edits ``src/``.  A traced run installs an enabled
:class:`~repro.obs.runtime.Telemetry` handle, so the spans the program
already records (``study.*``, ``sim.*``, ``engine.*``, ``workload.*``,
``balance.plan``) are kept, and wraps the public functions and methods
listed in :data:`WRAPPED` so each call records one more span on the
same tracer.  A module-level function is replaced in every ``repro``
module that holds it, which covers names imported with
``from ... import``; a method is replaced on its class.

Because the wrappers record into the program's own tracer they share
its per-thread nesting stack, so one pass over the finished spans gives
every span's self time: its duration minus that of its direct children.
:func:`layer_metrics` sums self times into the per-layer metrics that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: ``(span name, module, attribute)``; ``Class.method`` wraps a method.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("bench.balancer.rebinding", "repro.balancer.wt", "simulate_rebinding"),
    ("bench.balancer.dispatch", "repro.balancer.dispatch", "simulate_dispatch"),
    ("bench.balancer.interbs", "repro.balancer.interbs", "InterBsBalancer.run"),
    ("bench.cluster.sim_run", "repro.cluster.simulator", "EBSSimulator.run"),
    ("bench.cluster.gc", "repro.cluster.gc", "simulate_gc"),
    ("bench.engine.merge", "repro.engine.merge", "merge_shard_parts"),
    ("bench.workload.fleet", "repro.workload.fleet", "build_fleet"),
    (
        "bench.workload.generate",
        "repro.workload.generator",
        "WorkloadGenerator.generate_vd",
    ),
    ("bench.cache.replay", "repro.cache.simulate", "simulate_vd_caches"),
    ("bench.cache.prepare", "repro.cache.fastreplay", "prepare_pages"),
    ("bench.throttle.lending", "repro.throttle.lending", "simulate_lending"),
    (
        "bench.prediction.evaluate",
        "repro.prediction.evaluate",
        "evaluate_predictor",
    ),
    ("bench.live.topk", "repro.live.sketches", "SpaceSaving.update_many"),
    (
        "bench.live.observe",
        "repro.live.windowing",
        "RollingSkewTracker.observe",
    ),
    ("bench.live.policy", "repro.live.policy", "OnlinePolicyEngine.on_window"),
    ("bench.live.ring_wait", "repro.live.ring", "RingBuffer.put"),
    ("bench.live.ring_wait", "repro.live.ring", "RingBuffer.get"),
)

#: The one wrapped call whose peak-RSS growth is recorded; the program's
#: own ``study.build`` and ``study.experiment`` spans carry theirs.
HWM_SPAN = "bench.engine.merge"

#: Experiments reported one by one; the rest are summed as ``other``.
EXPERIMENTS = (
    "fig2d",
    "extra_dispatch",
    "redundancy_cov",
    "fig7bc",
    "extra_gc",
    "extra_faults",
    "redundancy_faults",
    "balance_h2h",
    "fig4c",
    "fig7d",
)

#: Self-time metrics: metric name -> the span names whose self time it sums.
SELF_TIME = {
    "study.build_s": ("study.build", "study.simulate_dc"),
    "balancer.rebinding_s": ("bench.balancer.rebinding",),
    "balancer.dispatch_s": ("bench.balancer.dispatch",),
    "balancer.interbs_s": ("bench.balancer.interbs",),
    "cluster.sim_run_s": (
        "bench.cluster.sim_run",
        "sim.workload",
        "sim.pass2",
        "sim.pass2.chunk",
    ),
    "cluster.pass1_s": ("sim.pass1",),
    "cluster.fault_adjust_s": ("sim.faults.adjust", "sim.faults.replay"),
    "cluster.redundancy_s": ("sim.redundancy.expand",),
    "cluster.gc_s": ("bench.cluster.gc",),
    "engine.spill_s": ("engine.spill", "engine.spill.batch"),
    "engine.pass1_s": ("engine.pass1.shard",),
    "engine.merge_s": ("engine.merge", "bench.engine.merge"),
    "engine.pass2_s": ("engine.pass2.batch",),
    "workload.generate_s": (
        "workload.generate_all",
        "bench.workload.generate",
    ),
    "workload.fleet_s": ("bench.workload.fleet",),
    "cache.replay_s": ("bench.cache.replay",),
    "cache.prepare_s": ("bench.cache.prepare",),
    "throttle.lending_s": ("bench.throttle.lending",),
    "prediction.evaluate_s": ("bench.prediction.evaluate",),
    "balance.plan_s": ("balance.plan",),
    "live.topk_s": ("bench.live.topk",),
    "live.observe_s": ("bench.live.observe",),
    "live.policy_s": ("bench.live.policy",),
    "live.ring_wait_s": ("bench.live.ring_wait",),
}

#: Call counts: metric name -> span name.
CALLS = {
    "balancer.rebinding_calls": "bench.balancer.rebinding",
    "balancer.dispatch_calls": "bench.balancer.dispatch",
    "throttle.lending_calls": "bench.throttle.lending",
    "cluster.sim_runs": "bench.cluster.sim_run",
}

#: Counters the program records: metric name -> counter name (all labels).
COUNTERS = {
    "balance.candidates": "balance.candidates_evaluated",
    "cache.pages_replayed": "cache.replay.pages",
}

#: Metrics filled in by the workload itself rather than from spans.
WORKLOAD_METRICS = (
    "engine.shard_bytes",
    "live.queue_depth_max",
    "live.events",
    "live.windows",
)


def metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = ["study.build_s"]
    names += [f"exp.{name}_s" for name in EXPERIMENTS] + ["exp.other_s"]
    names += ["study.build_hwm_mib"]
    names += [f"exp.{name}_hwm_mib" for name in EXPERIMENTS]
    names += ["exp.other_hwm_mib"]
    names += [name for name in SELF_TIME if name != "study.build_s"]
    names += list(CALLS) + list(COUNTERS)
    names += ["engine.merge_hwm_mib", "live.decision_p50_ms"]
    names += ["live.decision_p80_ms"]
    names += list(WORKLOAD_METRICS) + ["obs.trace_overhead_pct"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """``(owner, name, current value)`` for ``module:attribute``."""
    owner: Any = importlib.import_module(module_name)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


@contextlib.contextmanager
def replaced(
    module_name: str, attribute: str, make: Callable[[Callable], Callable]
) -> Iterator[None]:
    """Swap ``module:attribute`` for ``make(original)`` everywhere it is held.

    A method is swapped on its class.  A module-level function is swapped
    in every loaded ``repro`` module whose global of the same name is
    that function, so callers that imported it by name call the
    replacement too.  Everything is restored on exit.
    """
    owner, name, original = _resolve(module_name, attribute)
    replacement = make(original)
    if isinstance(owner, type):
        holders = [owner]
    else:
        holders = [
            module
            for module_key, module in list(sys.modules.items())
            if module_key.split(".")[0] == "repro"
            and module is not None
            and module.__dict__.get(name) is original
        ]
    for holder in holders:
        setattr(holder, name, replacement)
    try:
        yield
    finally:
        for holder in holders:
            setattr(holder, name, original)


def _import_program() -> None:
    """Import every module a workload may load lazily, before patching."""
    for module_name in (
        "repro.core.experiments",
        "repro.engine",
        "repro.live",
        "repro.balance",
    ):
        importlib.import_module(module_name)
    for _, module_name, _ in WRAPPED:
        importlib.import_module(module_name)


def _traced(span_name: str, telemetry, hwm_growth: List[int]) -> Callable:
    """A wrapper factory spanning each call; for :data:`HWM_SPAN` it also
    appends the ``VmHWM`` growth across each outermost call to
    ``hwm_growth``.
    """
    from repro.obs.runtime import peak_rss_bytes

    depth = [0]

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span_name != HWM_SPAN:
                with telemetry.span(span_name):
                    return original(*args, **kwargs)
            depth[0] += 1
            before = peak_rss_bytes()
            try:
                with telemetry.span(span_name):
                    return original(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    hwm_growth.append(peak_rss_bytes() - before)

        return wrapper

    return make


class Tracing:
    """A traced run: telemetry on and every :data:`WRAPPED` call spanned.

    Use as a context manager around the whole subprocess (set-up
    included); :meth:`metrics` then turns the recording into the
    per-layer metric table.
    """

    def __init__(self) -> None:
        from repro.obs.runtime import Telemetry

        self.telemetry = Telemetry(enabled=True)
        #: ``VmHWM`` growth in bytes across each outermost merge call.
        self.merge_growth: List[int] = []
        self._stack = contextlib.ExitStack()
        self._previous = None

    def __enter__(self) -> "Tracing":
        from repro.obs.runtime import set_telemetry

        _import_program()
        self._previous = set_telemetry(self.telemetry)
        for span_name, module_name, attribute in WRAPPED:
            self._stack.enter_context(
                replaced(
                    module_name,
                    attribute,
                    _traced(span_name, self.telemetry, self.merge_growth),
                )
            )
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs.runtime import set_telemetry

        self._stack.close()
        set_telemetry(self._previous)

    def metrics(
        self, extra: Dict[str, float], hwm_before: int
    ) -> Dict[str, float]:
        """The per-layer table; ``hwm_before`` is ``VmHWM`` in bytes when
        the timed phase began."""
        return layer_metrics(
            self.telemetry.snapshot(), self.merge_growth, extra, hwm_before
        )


def self_times(spans: List[Dict[str, Any]]) -> List[Tuple[Dict, float]]:
    """Pair each span with its self time in seconds.

    Spans arrive in finish order, and on one thread every child finishes
    before its parent, so a running sum per ``(thread, depth)`` of the
    finished spans' durations holds, when a span at depth ``d`` finishes,
    exactly the time of its direct children at depth ``d + 1``.
    """
    pending: Dict[Tuple[int, int], float] = defaultdict(float)
    out = []
    for span in spans:
        tid, depth = span["tid"], span["depth"]
        duration = span["dur_us"] / 1e6
        children = pending.pop((tid, depth + 1), 0.0)
        pending[(tid, depth)] += duration
        out.append((span, duration - children))
    return out


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q``-quantile by nearest rank (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def layer_metrics(
    snapshot: Dict[str, Any],
    merge_growth: List[int],
    extra: Dict[str, float],
    hwm_before: int,
) -> Dict[str, float]:
    """The per-layer metric table for one traced run.

    ``extra`` carries what the workload measured itself (the names in
    :data:`WORKLOAD_METRICS` and ``obs.trace_overhead_pct``); a metric of
    a layer the workload does not exercise reads 0.  The program's
    ``study.build`` and ``study.experiment`` spans give the inclusive
    experiment times and, from the ``peak_rss_bytes`` each records when
    it ends, the ``VmHWM`` growth since the one before (``hwm_before``
    for the first).
    """
    out = {name: 0.0 for name in metric_names()}
    by_name: Dict[str, str] = {
        span: metric for metric, spans in SELF_TIME.items() for span in spans
    }
    calls: Dict[str, int] = defaultdict(int)
    decisions_ms: List[float] = []
    for span, self_s in self_times(snapshot["spans"]):
        name = span["name"]
        metric = by_name.get(name)
        if metric is not None:
            out[metric] += self_s
        calls[name] += 1
        if name == "bench.live.policy":
            decisions_ms.append(span["dur_us"] / 1e3)
    for metric, span_name in CALLS.items():
        out[metric] = float(calls[span_name])
    for metric, counter in COUNTERS.items():
        out[metric] = float(sum(
            entry["value"]
            for entry in snapshot["metrics"]["counters"]
            if entry["name"] == counter
        ))
    out["live.decision_p50_ms"] = nearest_rank(decisions_ms, 0.50)
    # One 600 s pass closes 61 windows: p80 is the highest percentile with
    # at least ten windows beyond it.
    out["live.decision_p80_ms"] = nearest_rank(decisions_ms, 0.80)
    mib = 1024.0 * 1024.0
    out["engine.merge_hwm_mib"] = sum(merge_growth) / mib
    previous = hwm_before
    for span in snapshot["spans"]:
        if span["name"] == "study.build":
            key = "study.build"
        elif span["name"] == "study.experiment":
            experiment = span["labels"]["experiment"]
            if experiment not in EXPERIMENTS:
                experiment = "other"
            key = f"exp.{experiment}"
            out[f"{key}_s"] += span["dur_us"] / 1e6
        else:
            continue
        peak = span["labels"]["peak_rss_bytes"]
        out[f"{key}_hwm_mib"] += (peak - previous) / mib
        previous = peak
    out.update(extra)
    return out


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            if os.path.isfile(full) and not os.path.islink(full):
                total += os.path.getsize(full)
    return total

