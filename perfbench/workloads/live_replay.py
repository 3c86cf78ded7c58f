"""``live_replay``: the threaded live plane replaying at maximum rate.

Why this workload: only the live plane does work; no pass 1, pass 2 or
experiment runs.  One injector replays into a blocking event ring as
fast as the pipeline drains it, so this is a closed loop with one
client: a slower pipeline gets less load, and the figure is sustained
lossless throughput.  Space-Saving top-K updates take nearly all of the
replay, so a live-plane change shows here and nowhere else.

Set-up: imports and ``build_pipeline`` (fleet, traffic and event
synthesis for one large-scale DC, 600 trace seconds, about 1.3M
events).  Timed: ``LivePipeline.run``, one pass in 10 s windows, with no
scrape server, no flight recorder and telemetry off.  One pass rather
than three looped ones lets a run cover several inputs.  Operations are
the events plus the windows; an event fails if it is dropped, a window
if it differs from ``offline_window_stats`` on the same looped stream.
"""

from __future__ import annotations

from typing import Any, Dict

import digests

NAME = "live_replay"
#: Seconds of ``--seconds`` each input stands for, about what one takes
#: with set-up and the offline check on a 2-vCPU machine: six inputs at
#: 40 s.
NOMINAL_S = 7.0
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"duration_seconds": 600, "loops": 1},
    "reduced": {"duration_seconds": 120, "loops": 1},
}


def setup(seed: int, size: str = "full") -> Dict[str, Any]:
    from repro.live import LiveConfig, build_pipeline

    config = LiveConfig(
        scale="large",
        seed=seed,
        window_seconds=10,
        rate=None,
        **SIZES[size],
    )
    return {"config": config, "pipeline": build_pipeline(config)}


def timed(state: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    try:
        report = state["pipeline"].run()
    except Exception as error:  # noqa: BLE001 - counted as failed ops
        report = error
    out: Dict[str, Any] = {"report": report, "layers": {}}
    if traced and not isinstance(report, Exception):
        out["layers"] = {
            "live.queue_depth_max": float(
                report.ring_stats["live.events"]["max_depth"]
            ),
            "live.events": float(report.events),
            "live.windows": float(len(report.windows)),
        }
    return out


def _offline_windows(state: Dict[str, Any]):
    """``offline_window_stats`` over the stream the injector replays."""
    from repro.live import concat_batches, offline_window_stats

    pipeline = state["pipeline"]
    events = pipeline.injector.events
    span = float(events.timestamp[-1]) - float(events.timestamp[0])
    looped = concat_batches([
        events if index == 0 else events.shifted(index * (span + 1.0))
        for index in range(pipeline.injector.loops)
    ])
    return offline_window_stats(
        looped,
        pipeline.tracker.num_vds,
        pipeline.tracker.total_seconds,
        state["config"].window_seconds,
        state["config"].ccr_fraction,
    )


def observe(state: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, Any]:
    injector = state["pipeline"].injector
    expected_events = len(injector.events) * injector.loops
    offline = [digests.of_json(w.stats.to_dict()) for w in _offline_windows(state)]
    report = outputs["report"]
    if isinstance(report, Exception):
        return {
            "ops": expected_events + len(offline),
            "work": 0,
            "problems": [f"replay failed: {report!r}"],
            "digests": {},
        }
    online = [digests.of_json(w.to_dict()) for w in report.windows]
    return {
        "ops": expected_events + len(offline),
        "work": report.events,
        "problems": [],
        # Events the injector dropped or never delivered.
        "dropped": expected_events - report.events,
        "digests": {
            "windows": digests.of_json(online),
            "window_list": online,
            "offline": offline,
        },
    }


def failures(observed: Dict[str, Any], reference: Dict[str, Any]) -> int:
    """Dropped events plus windows that differ from the offline reference."""
    online = observed["digests"]["window_list"]
    offline = observed["digests"]["offline"]
    mismatched = sum(1 for a, b in zip(online, offline) if a != b)
    return observed["dropped"] + mismatched + abs(len(online) - len(offline))
