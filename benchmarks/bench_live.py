"""Perf benchmark: live ingestion throughput (§ repro.live).

Replays a synthesized event stream through the full threaded pipeline
(injector -> ring -> windowed skew tracker + sketches -> policy engine)
at maximum rate, records sustained events/sec and decision latency in
``BENCH_live.json``, and re-derives the offline reference to assert the
online windowed statistics matched it **exactly** — a benchmark run that
loses parity is a failure, not a slow result.

Run directly::

    PYTHONPATH=src python benchmarks/bench_live.py --duration 30

or as a pytest smoke check (short replay, parity + floor only)::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_live.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from repro.live import (
    LiveConfig,
    build_pipeline,
    offline_window_stats,
    run_live,
)

#: The results file, at the repository root.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_live.json"


def write_results(payload: dict, path: Path = RESULTS_PATH) -> None:
    """Write ``payload``, with the interpreter versions, as the ``live``
    section of the results file."""
    environment = {"python": platform.python_version(), "numpy": np.__version__}
    results = {"live": dict(payload, environment=environment)}
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def run_live_benchmark(
    scale: str = "small",
    duration: int = 30,
    window: int = 5,
    seed: int = 7,
    batch_events: int = 4096,
) -> dict:
    """One max-rate replay; returns the results payload."""
    config = LiveConfig(
        scale=scale,
        seed=seed,
        duration_seconds=duration,
        window_seconds=window,
        batch_events=batch_events,
        rate=None,  # as fast as possible: this is the throughput figure
    )
    report = run_live(config)

    # Parity against the offline reference on the identical stream: the
    # correctness anchor rides along with every benchmark run.
    pipeline = build_pipeline(config)
    offline = offline_window_stats(
        pipeline.injector.events,
        pipeline.tracker.num_vds,
        pipeline.tracker.total_seconds,
        window,
    )
    matches = [w.to_dict() for w in report.windows] == [
        c.stats.to_dict() for c in offline
    ]

    return {
        "config": config.to_dict(),
        "events": report.events,
        "batches": report.batches,
        "events_dropped": report.events_dropped,
        "wall_seconds": round(report.wall_seconds, 4),
        "events_per_sec": round(report.events_per_sec),
        "windows_closed": len(report.windows),
        "decisions": len(report.decisions),
        "decision_latency_max_us": report.decision_latency_max_us,
        "top_segments": len(report.top_segments),
        "ring_stats": report.ring_stats,
        "matches_offline": bool(matches),
    }


def measure_telemetry_overhead(
    scale: str = "small",
    duration: int = 30,
    window: int = 5,
    seed: int = 7,
    batch_events: int = 4096,
    repeats: int = 3,
    loops: int = 20,
) -> dict:
    """Throughput cost of the full observability plane, in percent.

    Replays the identical stream ``repeats`` times with the plane off and
    ``repeats`` times with everything on — metrics, flight recorder,
    SLO tracking, and a live ``/metrics`` server — and compares the best
    sustained events/sec of each arm (best-of-N cancels scheduler noise;
    the plane cannot make the pipeline *faster*).  Each replay loops the
    stream ``loops`` times so the plane's fixed startup cost (server
    bind, recorder thread) is amortised the way a long-lived serving
    loop amortises it, and the steady-state per-event cost dominates.
    """
    from repro.obs import telemetry_session

    config = LiveConfig(
        scale=scale,
        seed=seed,
        duration_seconds=duration,
        window_seconds=window,
        batch_events=batch_events,
        rate=None,
        loops=loops,
    )
    plane_config = LiveConfig(
        scale=scale,
        seed=seed,
        duration_seconds=duration,
        window_seconds=window,
        batch_events=batch_events,
        rate=None,
        loops=loops,
        serve=("127.0.0.1", 0),
        recorder_interval=0.25,
        slos=(
            "live.decision_latency_us:p99<60000000",
            "live.events_dropped/live.events_total<0.9",
        ),
    )

    baseline = 0.0
    for _ in range(repeats):
        baseline = max(baseline, run_live(config).events_per_sec)
    plane = 0.0
    for _ in range(repeats):
        with telemetry_session(seed=seed):
            plane = max(plane, run_live(plane_config).events_per_sec)

    overhead_pct = max(0.0, (baseline - plane) / baseline * 100.0)
    return {
        "baseline_events_per_sec": round(baseline),
        "plane_events_per_sec": round(plane),
        "overhead_pct": round(overhead_pct, 2),
        "repeats": repeats,
    }


# -- pytest smoke (short replay, parity + floor only) ------------------------


def test_live_throughput_smoke(tmp_path):
    payload = run_live_benchmark(duration=10)
    assert payload["matches_offline"]
    assert payload["events_dropped"] == 0
    assert payload["events"] > 0
    # The acceptance floor: the small-scale replay sustains >= 100k
    # events/sec end to end (threads, ring hops, and policy included).
    assert payload["events_per_sec"] >= 100_000
    write_results(payload, tmp_path / "BENCH_live.json")
    assert (tmp_path / "BENCH_live.json").exists()


def test_telemetry_overhead_smoke():
    overhead = measure_telemetry_overhead(duration=10, repeats=1, loops=2)
    assert overhead["baseline_events_per_sec"] > 0
    assert overhead["plane_events_per_sec"] > 0
    # A smoke-length replay is too short for a tight bound; the real
    # margin is asserted by the CI benchmark job via
    # --assert-telemetry-overhead.
    assert overhead["overhead_pct"] < 100.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument("--duration", type=int, default=30)
    parser.add_argument("--window", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--batch-events", type=int, default=4096)
    parser.add_argument(
        "--assert-events-per-sec", type=float, default=None,
        help="fail (exit 1) when sustained events/sec lands below this",
    )
    parser.add_argument(
        "--assert-telemetry-overhead", type=float, default=None,
        metavar="PCT",
        help="also measure the observability plane's throughput cost and "
        "fail (exit 1) when it exceeds PCT percent",
    )
    args = parser.parse_args()

    payload = run_live_benchmark(
        scale=args.scale,
        duration=args.duration,
        window=args.window,
        seed=args.seed,
        batch_events=args.batch_events,
    )
    if args.assert_telemetry_overhead is not None:
        payload["telemetry_overhead"] = measure_telemetry_overhead(
            scale=args.scale,
            duration=args.duration,
            window=args.window,
            seed=args.seed,
            batch_events=args.batch_events,
        )
    write_results(payload)
    print(
        f"live[{args.scale}]: {payload['events']} events in "
        f"{payload['wall_seconds']}s wall "
        f"({payload['events_per_sec']} events/sec), "
        f"{payload['windows_closed']} windows, "
        f"{payload['decisions']} decisions, "
        f"max decision latency {payload['decision_latency_max_us']}us, "
        f"matches_offline={payload['matches_offline']}"
    )
    overhead = payload.get("telemetry_overhead")
    if overhead is not None:
        print(
            f"telemetry overhead: {overhead['overhead_pct']}% "
            f"({overhead['baseline_events_per_sec']} -> "
            f"{overhead['plane_events_per_sec']} events/sec with the "
            f"full plane on, best of {overhead['repeats']})"
        )
    if not payload["matches_offline"]:
        raise SystemExit("online windowed stats diverged from offline")
    if (
        args.assert_events_per_sec is not None
        and payload["events_per_sec"] < args.assert_events_per_sec
    ):
        raise SystemExit(
            f"throughput {payload['events_per_sec']} events/sec is below "
            f"the {args.assert_events_per_sec:.0f} floor"
        )
    if (
        args.assert_telemetry_overhead is not None
        and overhead["overhead_pct"] > args.assert_telemetry_overhead
    ):
        raise SystemExit(
            f"observability plane costs {overhead['overhead_pct']}% "
            f"throughput, above the "
            f"{args.assert_telemetry_overhead:g}% ceiling"
        )


if __name__ == "__main__":
    main()
