"""Command-line interface: run any experiment and print its table.

Usage::

    ebs-repro list
    ebs-repro run table3 --scale small --seed 7
    ebs-repro run all --scale medium --telemetry out/telemetry.json
    ebs-repro run table3 -o results.json        # versioned result payload
    ebs-repro balance plan --scale small -o plan.json --save-state state.json
    ebs-repro balance apply --state state.json --plan plan.json
    ebs-repro balance score --state state.json
    ebs-repro live --duration 10 --rate 100x --telemetry out/live.json
    ebs-repro live --rate 4x --serve 127.0.0.1:9377 \
        --slo 'live.decision_latency_us:p99<500'
    ebs-repro top --connect 127.0.0.1:9377
    ebs-repro export-dataset -o out/ --scale small
    ebs-repro sweep fig7a --axis cache_min_traces=300,500 --store out/cache
    ebs-repro obs report out/telemetry.json
    ebs-repro obs export out/telemetry.json --format chrome-trace -o trace.json
    ebs-repro obs validate out/telemetry.json   # also validates result JSON
    ebs-repro obs promcheck scrape.prom         # check a /metrics scrape

Result tables and exported artifacts go to stdout; status and error
reporting goes to stderr through :mod:`logging` (``-v`` for debug,
``-q`` for errors only).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.core import (
    SCALE_NAMES,
    Study,
    StudyConfig,
    experiment_ids,
    results_payload,
    validate_result_payload,
)
from repro.cluster.redundancy import READ_POLICY_NAMES
from repro.core.config import DEFAULT_CHUNK_EPOCHS, streaming_chunk_epochs
from repro.core.report import ExperimentResult
from repro.obs.export import EXPORT_FORMATS, export_telemetry
from repro.obs.runtime import (
    Telemetry,
    peak_rss_bytes,
    set_telemetry,
)
from repro.obs.schema import validate_telemetry
from repro.obs.spans import stage_summary
from repro.trace.io import write_metric_csv, write_trace_jsonl
from repro.util.errors import ReproError

_SCALES = SCALE_NAMES
_READ_POLICIES = READ_POLICY_NAMES

_LOG = logging.getLogger("repro.cli")


class _LowercaseLevelFormatter(logging.Formatter):
    """``error: message`` rather than ``ERROR: message``."""

    def format(self, record: logging.LogRecord) -> str:
        record.levelname = record.levelname.lower()
        return super().format(record)


def _configure_logging(verbose: int, quiet: bool) -> None:
    """(Re)install the CLI's stderr handler on the ``repro`` logger."""
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_cli = True  # type: ignore[attr-defined]
    handler.setFormatter(_LowercaseLevelFormatter("%(levelname)s: %(message)s"))
    logger.addHandler(handler)
    logger.propagate = False
    if quiet:
        logger.setLevel(logging.ERROR)
    elif verbose:
        logger.setLevel(logging.DEBUG)
    else:
        logger.setLevel(logging.INFO)


def _streaming_options(
    args: argparse.Namespace,
) -> "tuple[Optional[int], Optional[str], Optional[int]]":
    """``(chunk_epochs, shard_dir, max_rss_mb)`` for this run.

    ``chunk_epochs`` follows :func:`repro.core.config.streaming_chunk_epochs`,
    the rule :mod:`repro.api` applies too.
    """
    shard_dir = getattr(args, "shard_dir", None)
    max_rss = getattr(args, "max_rss_mb", None)
    chunk = streaming_chunk_epochs(
        args.scale, getattr(args, "chunk_epochs", None), shard_dir, max_rss
    )
    return chunk, shard_dir, max_rss


def _config(args: argparse.Namespace) -> StudyConfig:
    overrides = {}
    duration = getattr(args, "duration_seconds", None)
    if duration is not None:
        overrides["duration_seconds"] = duration
    redundancy = getattr(args, "redundancy", None)
    if redundancy is not None:
        overrides["redundancy"] = redundancy
    read_policy = getattr(args, "read_policy", None)
    if read_policy is not None:
        overrides["read_policy"] = read_policy
    config = StudyConfig.scale(args.scale, seed=args.seed, **overrides)
    plan_path = getattr(args, "fault_plan", None)
    if plan_path:
        from dataclasses import replace

        from repro.faults.plan import FaultPlan

        plan = FaultPlan.load(plan_path)
        _LOG.info(
            "loaded fault plan %s (%d event(s), policy=%s)",
            plan_path, len(plan), plan.policy.value,
        )
        config = replace(config, fault_plan=plan)
    return config


def _study(args: argparse.Namespace) -> Study:
    config = _config(args)
    chunk_epochs, shard_dir, max_rss_mb = _streaming_options(args)
    if chunk_epochs is not None:
        _LOG.info(
            "streaming engine on: chunk_epochs=%d shard_dir=%s "
            "max_rss_mb=%s (results identical to a monolithic run)",
            chunk_epochs, shard_dir or "<temp>", max_rss_mb,
        )
    return Study(
        config,
        chunk_epochs=chunk_epochs,
        shard_dir=shard_dir,
        max_rss_mb=max_rss_mb,
    )


def _write_digest(study: Study, args: argparse.Namespace) -> None:
    """Write per-DC result digests (the nightly parity job's artifact)."""
    import hashlib

    from repro.engine.digest import result_digest

    per_dc = {
        f"dc{result.fleet.config.dc_id}": result_digest(result)
        for result in study.results
    }
    combined = hashlib.sha256(
        "".join(per_dc[key] for key in sorted(per_dc)).encode()
    ).hexdigest()
    payload = {
        "scale": args.scale,
        "seed": args.seed,
        "chunk_epochs": study.chunk_epochs,
        "per_dc": per_dc,
        "combined": combined,
    }
    Path(args.digest).write_text(json.dumps(payload, indent=2) + "\n")
    _LOG.info("wrote result digest %s to %s", combined[:12], args.digest)


# -- telemetry lifecycle -----------------------------------------------------


def _start_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """Install an enabled telemetry handle when ``--telemetry`` was given."""
    if not getattr(args, "telemetry", None):
        return None
    telemetry = Telemetry(enabled=True, seed=args.seed)
    set_telemetry(telemetry)
    return telemetry


def _finish_telemetry(
    telemetry: Optional[Telemetry], args: argparse.Namespace
) -> None:
    """Write ``telemetry.json`` (even after a mid-study failure).

    This runs from ``finally`` blocks, so a failing write must never
    mask an in-flight exception: with a failure already propagating the
    write error is logged (naming the artifact that was NOT written)
    and swallowed; on the clean path it raises, chained, so the exit
    code goes non-zero.

    A handle installed without ``--telemetry`` (``live --serve`` enables
    one in memory so the scrape endpoint has metrics to expose) is
    uninstalled but never written.
    """
    if telemetry is None:
        return
    in_flight = sys.exc_info()[1]
    set_telemetry(None)
    if not getattr(args, "telemetry", None):
        return
    telemetry.meta.update(
        {
            "command": args.command,
            "scale": args.scale,
            "seed": args.seed,
            "workers": getattr(args, "workers", 1),
            "experiment": getattr(args, "experiment", None),
            "fault_plan": getattr(args, "fault_plan", None),
            "chunk_epochs": getattr(args, "chunk_epochs", None),
            "version": __version__,
            "peak_rss_bytes": peak_rss_bytes(),
        }
    )
    try:
        path = telemetry.write(args.telemetry)
    except OSError as error:
        if in_flight is not None:
            _LOG.error(
                "telemetry was NOT written to %s: %s (keeping the "
                "original failure below)",
                args.telemetry, error,
            )
            return
        raise ReproError(
            f"telemetry was not written to {args.telemetry}: {error}"
        ) from error
    _LOG.info("wrote telemetry to %s", path)


# -- commands ----------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.core.experiments import EXPERIMENTS

    for experiment_id in experiment_ids():
        title = getattr(EXPERIMENTS[experiment_id], "title", "")
        print(f"{experiment_id:12s} {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    output = args.output
    telemetry = _start_telemetry(args)
    results: List[ExperimentResult] = []
    failure: "Optional[tuple[str, BaseException]]" = None
    study: Optional[Study] = None
    try:
        study = _study(args)
        study.build()
        if getattr(args, "digest", None):
            _write_digest(study, args)
        targets = (
            experiment_ids() if args.experiment == "all"
            else [args.experiment]
        )
        for experiment_id in targets:
            try:
                result = study.run(experiment_id)
            except Exception as error:  # flush partial results below
                failure = (experiment_id, error)
                break
            results.append(result)
            print(result.render())
            print()
        if output and (results or failure):
            payload = results_payload(
                results,
                scale=args.scale,
                seed=args.seed,
                redundancy=getattr(args, "redundancy", None),
                read_policy=getattr(args, "read_policy", None),
                failed_experiment=failure[0] if failure else None,
            )
            try:
                Path(output).write_text(json.dumps(payload, indent=2))
            except OSError as flush_error:
                # A failed flush must not swallow the experiment failure
                # that got us here: chain the new error onto the original
                # so both tracebacks survive to main().
                if failure is not None:
                    experiment_id, error = failure
                    raise ReproError(
                        f"results were NOT written to {output} "
                        f"({flush_error}) while flushing "
                        f"{len(results)} partial result(s) after "
                        f"experiment {experiment_id!r} failed: {error}"
                    ) from error
                raise ReproError(
                    f"results were NOT written to {output}: {flush_error}"
                ) from flush_error
            _LOG.info("wrote %d result(s) to %s", len(results), output)
    finally:
        if study is not None:
            study.cleanup()
        _finish_telemetry(telemetry, args)
    if failure is not None:
        experiment_id, error = failure
        if not isinstance(error, ReproError):
            raise error
        raise ReproError(
            f"experiment {experiment_id!r} failed after "
            f"{len(results)} completed result(s): {error}"
        ) from error
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    telemetry = _start_telemetry(args)
    written = 0
    study: Optional[Study] = None
    try:
        study = _study(args)
        study.build()
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        for result in study.results:
            dc = result.fleet.config.dc_id
            target = out / f"dc{dc}_traces.jsonl"
            try:
                write_trace_jsonl(result.traces, target)
                target = out / f"dc{dc}_compute.csv"
                write_metric_csv(result.metrics.compute, target)
                target = out / f"dc{dc}_storage.csv"
                write_metric_csv(result.metrics.storage, target)
            except Exception as error:
                # Name the exact artifact that failed; everything before
                # it (this DC included) is already on disk and stays.
                raise ReproError(
                    f"export failed writing {target} (DC-{dc + 1}; "
                    f"{written} DC(s) fully written to {out}): {error}"
                ) from error
            written += 1
            _LOG.info(
                "DC-%d: %d traces, %d compute rows, %d storage rows",
                dc + 1,
                len(result.traces),
                len(result.metrics.compute),
                len(result.metrics.storage),
            )
    finally:
        if study is not None:
            study.cleanup()
        _finish_telemetry(telemetry, args)
    return 0


def _parse_balance_weights(text: str):
    """``--weights NODE:WT:BS`` → :class:`repro.balance.ScoreWeights`."""
    from repro.balance import ScoreWeights

    parts = text.split(":")
    if len(parts) != 3:
        raise ReproError(
            f"--weights takes NODE:WT:BS (e.g. 1:1:2), got {text!r}"
        )
    try:
        node, wt, bs = (float(part) for part in parts)
    except ValueError as error:
        raise ReproError(
            f"--weights components must be numbers: {text!r}"
        ) from error
    return ScoreWeights(node=node, wt=wt, bs=bs)


def _parse_id_csv(text: Optional[str], flag: str) -> "frozenset[int]":
    """A comma-separated id list flag → frozenset of ints."""
    if not text:
        return frozenset()
    try:
        return frozenset(
            int(part) for part in text.split(",") if part.strip()
        )
    except ValueError as error:
        raise ReproError(
            f"{flag} takes comma-separated integer ids, got {text!r}"
        ) from error


def _balance_state(args: argparse.Namespace):
    """Load (``--state``) or simulate (``--scale/--seed/--dc``) a state."""
    from repro.balance import ClusterState

    if args.state:
        try:
            state = ClusterState.load(args.state)
        except OSError as error:
            raise ReproError(
                f"cannot read cluster state {args.state}: {error}"
            ) from error
        _LOG.info(
            "loaded cluster state from %s (%d QPs, %d segments)",
            args.state, state.num_qps, state.num_segments,
        )
    else:
        study = _study(args)
        try:
            study.build()
            results = study.results
            if not 0 <= args.dc < len(results):
                raise ReproError(
                    f"--dc must be in [0, {len(results) - 1}] for this "
                    f"study, got {args.dc}"
                )
            state = ClusterState.from_simulation(
                results[args.dc], direction=args.direction
            )
        finally:
            study.cleanup()
    if args.save_state:
        try:
            state.save(args.save_state)
        except OSError as error:
            raise ReproError(
                f"cluster state was NOT written to {args.save_state}: "
                f"{error}"
            ) from error
        _LOG.info("wrote cluster state to %s", args.save_state)
    return state


def _blackout_suppresses_moves(args: argparse.Namespace) -> bool:
    """``--fault-plan`` with a migration blackout implies no segment moves.

    A plan is an *intent to migrate*: emitting segment moves while the
    operator has declared a migration blackout would schedule exactly the
    traffic the blackout forbids, so those moves are suppressed (the
    compute-side families are unaffected — rebinds are node-local).
    """
    if not getattr(args, "fault_plan", None):
        return False
    from repro.faults.plan import FaultKind, FaultPlan

    plan = FaultPlan.load(args.fault_plan)
    blackouts = plan.events_of(FaultKind.MIGRATION_BLACKOUT)
    if not blackouts:
        return False
    _LOG.info(
        "fault plan %s declares %d migration blackout(s); suppressing "
        "segment moves for this plan (implied --no-segment-moves)",
        args.fault_plan, len(blackouts),
    )
    return True


def _print_plan_summary(plan) -> None:
    by_kind = plan.moves_by_kind()
    kinds = ", ".join(
        f"{count} {kind}" for kind, count in sorted(by_kind.items()) if count
    )
    print(
        f"planner {plan.planner}: {plan.num_moves} move(s)"
        + (f" ({kinds})" if kinds else "")
    )
    print(
        f"badness {plan.initial_score:.6f} -> {plan.final_score:.6f} "
        f"(gain {plan.initial_score - plan.final_score:+.6f})"
    )


def _cmd_balance(args: argparse.Namespace) -> int:
    from repro.balance import (
        DEFAULT_MIN_GAIN,
        BalanceConfig,
        MovePlan,
        ScoreWeights,
        TriggerConfig,
        badness,
        dimension_covs,
        fixed_trigger_plan,
        plan_moves,
        state_summary,
    )

    telemetry = _start_telemetry(args)
    try:
        state = _balance_state(args)
        weights = (
            _parse_balance_weights(args.weights)
            if args.weights
            else ScoreWeights()
        )

        if args.mode == "score":
            covs = dimension_covs(state)
            summary = state_summary(state)
            print(
                f"state: {summary['num_qps']} QPs over "
                f"{summary['num_compute_nodes']} nodes x "
                f"{state.workers_per_node} WTs/node, "
                f"{summary['num_segments']} segments over "
                f"{summary['num_block_servers']} BS"
            )
            print(
                f"badness {badness(state, weights):.6f} "
                f"(node {covs['node']:.6f}, wt {covs['wt']:.6f}, "
                f"bs {covs['bs']:.6f})"
            )
            if args.output:
                payload = {
                    "badness": badness(state, weights),
                    "dimension_covs": covs,
                    "weights": weights.to_dict(),
                    "state_digest": state.digest(),
                    "summary": summary,
                }
                Path(args.output).write_text(
                    json.dumps(payload, sort_keys=True, indent=2) + "\n"
                )
                _LOG.info("wrote score report to %s", args.output)
            return 0

        no_segment_moves = (
            args.no_segment_moves or _blackout_suppresses_moves(args)
        )

        if args.mode == "plan":
            exclusions = {
                "exclude_qps": _parse_id_csv(args.exclude_qps, "--exclude-qps"),
                "exclude_vds": _parse_id_csv(args.exclude_vds, "--exclude-vds"),
                "exclude_segments": _parse_id_csv(
                    args.exclude_segments, "--exclude-segments"
                ),
            }
            if args.planner == "fixed-trigger":
                if any(exclusions.values()) or args.no_vd_rehomes:
                    raise ReproError(
                        "--exclude-* and --no-vd-rehomes configure the "
                        "greedy planner; the fixed-trigger planner has "
                        "no pinning (that asymmetry is the point of the "
                        "head-to-head)"
                    )
                plan = fixed_trigger_plan(
                    state,
                    TriggerConfig(
                        trigger_ratio=args.trigger_ratio,
                        weights=weights,
                        no_qp_rebinds=args.no_qp_rebinds,
                        no_segment_moves=no_segment_moves,
                    ),
                )
            else:
                plan = plan_moves(
                    state,
                    BalanceConfig(
                        weights=weights,
                        min_gain=(
                            args.min_gain
                            if args.min_gain is not None
                            else DEFAULT_MIN_GAIN
                        ),
                        max_moves=args.max_moves,
                        no_qp_rebinds=args.no_qp_rebinds,
                        no_vd_rehomes=args.no_vd_rehomes,
                        no_segment_moves=no_segment_moves,
                        **exclusions,
                    ),
                )
            _print_plan_summary(plan)
            if args.output:
                try:
                    plan.save(args.output)
                except OSError as error:
                    raise ReproError(
                        f"move plan was NOT written to {args.output}: "
                        f"{error}"
                    ) from error
                _LOG.info("wrote move plan to %s", args.output)
            return 0

        # apply
        if not args.plan_file:
            raise ReproError(
                "balance apply needs --plan FILE "
                "(produce one with 'ebs-repro balance plan -o FILE')"
            )
        try:
            plan = MovePlan.load(args.plan_file)
        except OSError as error:
            raise ReproError(
                f"cannot read move plan {args.plan_file}: {error}"
            ) from error
        applied = plan.apply_to(state.copy())
        print(
            f"applied {plan.num_moves} move(s) from {args.plan_file}: "
            f"badness {plan.initial_score:.6f} -> {plan.final_score:.6f}"
        )
        # Replan against the applied state with the plan's own embedded
        # config: a full greedy plan must leave nothing on the table
        # (the idempotence contract the property suite pins).
        if plan.planner == "greedy":
            remaining = plan_moves(
                applied, BalanceConfig.from_dict(plan.config)
            )
        elif plan.planner == "fixed_trigger":
            remaining = fixed_trigger_plan(
                applied, TriggerConfig.from_dict(plan.config)
            )
        else:
            raise ReproError(f"unknown planner {plan.planner!r} in plan")
        print(f"replan with embedded config: {remaining.num_moves} move(s)")
        if args.output:
            try:
                applied.save(args.output)
            except OSError as error:
                raise ReproError(
                    f"applied state was NOT written to {args.output}: "
                    f"{error}"
                ) from error
            _LOG.info("wrote applied cluster state to %s", args.output)
        return 0
    finally:
        _finish_telemetry(telemetry, args)


def _parse_rate(text: str) -> Optional[float]:
    """``--rate`` accepts a number, an ``NNNx`` multiplier, or ``max``."""
    if text.lower() in ("max", "none"):
        return None
    raw = text[:-1] if text.lower().endswith("x") else text
    try:
        rate = float(raw)
    except ValueError:
        raise ReproError(
            f"--rate must be a number, 'NNNx', or 'max'; got {text!r}"
        )
    if rate <= 0:
        raise ReproError(f"--rate must be > 0, got {text!r}")
    return rate


def _parse_serve(text: str) -> "tuple[str, int]":
    """``--serve`` accepts ``HOST:PORT``, ``:PORT``, or bare ``PORT``."""
    host, _, port_text = text.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"--serve must be HOST:PORT, :PORT, or PORT; got {text!r}"
        )
    if not 0 <= port <= 65535:
        raise ReproError(f"--serve port out of range: {text!r}")
    return host, port


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.live import LiveConfig, report_to_dict, run_live

    rate = _parse_rate(args.rate)
    serve = _parse_serve(args.serve) if args.serve else None
    telemetry = _start_telemetry(args)
    if serve is not None and telemetry is None:
        # The scrape endpoint needs live metrics even when no artifact
        # was requested: install an in-memory handle (never written).
        telemetry = Telemetry(enabled=True, seed=args.seed)
        set_telemetry(telemetry)
        _LOG.info(
            "--serve without --telemetry: metrics kept in memory only"
        )
    slo_section = None
    try:
        config = LiveConfig(
            scale=args.scale,
            seed=args.seed,
            duration_seconds=args.duration,
            rate=rate,
            window_seconds=args.window_seconds,
            batch_events=args.batch_events,
            ring_capacity=args.ring_capacity,
            overflow=args.overflow,
            loops=args.loops,
            serve=serve,
            recorder_interval=args.recorder_interval,
            slos=tuple(args.slo),
            slo_budget=args.slo_budget,
        )
        report = run_live(
            config,
            on_server=lambda server: _LOG.info(
                "obs server listening on %s "
                "(GET /metrics /snapshot /healthz /recorder)",
                server.url,
            ),
        )
        if telemetry is not None and config.slos:
            slo_section = telemetry.snapshot().get("slo")
    finally:
        _finish_telemetry(telemetry, args)
    _LOG.info(
        "live: %d event(s) in %.2fs wall (%.0f events/sec), %d window(s), "
        "%d decision(s), %d dropped, max decision latency %dus",
        report.events,
        report.wall_seconds,
        report.events_per_sec,
        len(report.windows),
        len(report.decisions),
        report.events_dropped,
        report.decision_latency_max_us,
    )
    table = ExperimentResult(
        experiment_id="live",
        title="rolling windowed skew (online)",
        headers=["window", "events", "GiB", "ccr-hot", "p2a", "cov", "w/r"],
        rows=[
            [
                f"[{w.window.start},{w.window.end})",
                w.events,
                round(w.total_bytes / 2**30, 3),
                round(w.ccr_hot, 4),
                round(w.p2a, 4),
                round(w.cov, 4),
                round(w.wr_ratio, 4),
            ]
            for w in report.windows
        ],
    )
    print(table.render())
    print()
    if report.top_segments:
        hot = ExperimentResult(
            experiment_id="live",
            title="hot segments (Space-Saving top-K)",
            headers=["segment", "bytes", "error_bound"],
            rows=[
                [entry["key"], round(entry["count"]), round(entry["error"])]
                for entry in report.top_segments
            ],
        )
        print(hot.render())
    if slo_section and slo_section.get("objectives"):
        print()
        slo_table = ExperimentResult(
            experiment_id="live",
            title="SLO objectives (per recorder interval)",
            headers=["slo", "intervals", "violations", "burn_rate", "status"],
            rows=[
                [
                    o["slo"],
                    o["intervals"],
                    o["violations"],
                    round(o["burn_rate"], 3),
                    "VIOLATING" if o["violating_now"] else "ok",
                ]
                for o in slo_section["objectives"]
            ],
        )
        print(slo_table.render())
        for objective in slo_section["objectives"]:
            for event in objective.get("events", []):
                _LOG.warning(
                    "slo %s crossed to %s at interval %s (value %.4g, "
                    "threshold %g)",
                    event["slo"], event["crossed"], event["interval"],
                    event["value"], event["threshold"],
                )
    if args.output:
        try:
            Path(args.output).write_text(
                json.dumps(report_to_dict(config, report), indent=2) + "\n"
            )
        except OSError as error:
            raise ReproError(
                f"live report was NOT written to {args.output}: {error}"
            ) from error
        _LOG.info("wrote live report to %s", args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.sweep import SweepRunner, SweepSpec, parse_axes

    chunk_epochs, _, _ = _streaming_options(args)
    experiments = (
        experiment_ids()
        if args.experiments == ["all"]
        else args.experiments
    )
    spec = SweepSpec(
        base=_config(args),
        axes=parse_axes(args.axis),
        experiments=tuple(experiments),
    )
    store_dir = args.store
    temp_store: Optional[str] = None
    if store_dir is None:
        temp_store = tempfile.mkdtemp(prefix="ebs-repro-sweep-")
        store_dir = temp_store
        _LOG.info(
            "no --store given; using throwaway cache %s (pass --store DIR "
            "to share work across sweeps and resume after interrupts)",
            store_dir,
        )
    telemetry = _start_telemetry(args)
    try:
        runner = SweepRunner(
            spec,
            store_dir,
            workers=args.workers,
            retries=args.retries,
            chunk_epochs=chunk_epochs,
        )
        outcome = runner.run()
    finally:
        _finish_telemetry(telemetry, args)
        if temp_store is not None:
            shutil.rmtree(temp_store, ignore_errors=True)
    for table in outcome.tables():
        print(table.render())
        print()
    stats = outcome.stats
    _LOG.info(
        "sweep: %d point(s), %d node(s) (%d hit, %d executed, %d skipped, "
        "%d retried), hit rate %.0f%%, %.2fs, digest %s",
        len(outcome.points),
        stats.total,
        stats.hits,
        stats.executed,
        stats.skipped,
        stats.retries,
        100.0 * stats.hit_rate,
        outcome.elapsed_seconds,
        outcome.combined_digest[:12],
    )
    if args.output:
        Path(args.output).write_text(
            json.dumps(outcome.to_dict(), indent=2) + "\n"
        )
        _LOG.info("wrote sweep outcome to %s", args.output)
    return 0


def _load_telemetry_file(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ReproError(f"no such telemetry file: {path}")
    except json.JSONDecodeError as error:
        raise ReproError(f"{path} is not valid JSON: {error}")


def _format_labels(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _metric_list(metrics: dict, kind: str) -> list:
    """A metric kind's series, or [] when absent / not a list.

    The report path renders whatever it can from an artifact even when
    validation would flag it; malformed kinds degrade to empty tables
    instead of tracebacks.
    """
    entries = metrics.get(kind, [])
    return entries if isinstance(entries, list) else []


def _cmd_obs_promcheck(args: argparse.Namespace) -> int:
    """Validate a Prometheus text-exposition document (file or stdin)."""
    from repro.obs.promtext import parse_promtext, validate_promtext

    if args.promtext_file == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.promtext_file).read_text()
        except OSError as error:
            raise ReproError(
                f"cannot read {args.promtext_file}: {error}"
            ) from error
    problems = validate_promtext(text)
    if problems:
        for problem in problems:
            _LOG.error("%s: %s", args.promtext_file, problem)
        return 1
    print(f"ok: {len(parse_promtext(text))} sample(s)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "promcheck":
        return _cmd_obs_promcheck(args)
    payload = _load_telemetry_file(args.telemetry_file)

    if args.obs_command == "validate":
        if (
            isinstance(payload, dict)
            and "result_schema_version" in payload
        ):
            # ``ebs-repro run -o results.json`` artifact, not telemetry.
            errors = validate_result_payload(payload)
            if errors:
                for problem in errors:
                    _LOG.error("%s: %s", args.telemetry_file, problem)
                return 1
            print(
                f"ok: result_schema_version "
                f"{payload['result_schema_version']}, "
                f"{len(payload.get('results', []))} result(s)"
            )
            return 0
        errors = validate_telemetry(payload)
        if errors:
            for problem in errors:
                _LOG.error("%s: %s", args.telemetry_file, problem)
            return 1
        metrics = payload.get("metrics", {})
        # Count only list-valued series: a stray scalar under 'metrics'
        # is already reported by validate_telemetry above, and a payload
        # with zero spans / missing kinds must not crash the summary
        # (regression: this used to call len() on non-list values).
        series = sum(
            len(entries)
            for entries in metrics.values()
            if isinstance(entries, list)
        )
        spans = payload.get("spans") or []
        print(
            f"ok: schema_version {payload.get('schema_version')}, "
            f"{series} metric series, {len(spans)} spans"
        )
        return 0

    if args.obs_command == "export":
        text = export_telemetry(payload, args.format)
        if args.output in (None, "-"):
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text)
            _LOG.info("wrote %s export to %s", args.format, args.output)
        return 0

    # report
    meta = payload.get("meta", {})
    if meta:
        known = (
            "command", "scale", "seed", "workers", "experiment", "version",
        )
        summary = ", ".join(
            f"{key}={meta[key]}" for key in known if meta.get(key) is not None
        )
        if summary:
            print(f"run: {summary}")
        rss = meta.get("peak_rss_bytes")
        if rss:
            print(f"peak rss: {rss / 2**20:.1f} MiB")
        print()

    stages = stage_summary(payload.get("spans") or [])
    if stages:
        table = ExperimentResult(
            experiment_id="obs",
            title="per-stage latency breakdown",
            headers=["stage", "count", "total_ms", "mean_ms", "p50_ms",
                     "p95_ms", "p99_ms", "max_ms"],
            rows=[
                [s["name"], s["count"], s["total_ms"], s["mean_ms"],
                 s["p50_ms"], s["p95_ms"], s["p99_ms"], s["max_ms"]]
                for s in stages
            ],
        )
        print(table.render())
        print()

    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        metrics = {}
    counters = _metric_list(metrics, "counters")
    gauges = [
        g for g in _metric_list(metrics, "gauges")
        if g.get("value") is not None
    ]
    if counters or gauges:
        table = ExperimentResult(
            experiment_id="obs",
            title="counters and gauges",
            headers=["metric", "labels", "value"],
            rows=[
                [c["name"], _format_labels(c["labels"]), c["value"]]
                for c in counters
            ] + [
                [g["name"], _format_labels(g["labels"]), g["value"]]
                for g in gauges
            ],
        )
        print(table.render())
        print()

    histograms = _metric_list(metrics, "histograms")
    if histograms:
        table = ExperimentResult(
            experiment_id="obs",
            title="histograms (log-bucketed)",
            headers=["metric", "labels", "count", "sum", "min", "max",
                     "buckets"],
            rows=[
                [
                    h["name"],
                    _format_labels(h["labels"]),
                    h["count"],
                    h["sum"],
                    h["min"],
                    h["max"],
                    len(h["buckets"]),
                ]
                for h in histograms
            ],
        )
        print(table.render())

    recorder = payload.get("recorder")
    if isinstance(recorder, dict):
        intervals = recorder.get("intervals") or []
        print()
        print(
            f"flight recorder: {recorder.get('samples_taken', 0)} sample(s) "
            f"at {recorder.get('interval_seconds')}s "
            f"({recorder.get('evicted', 0)} evicted, "
            f"capacity {recorder.get('capacity')})"
        )
        if intervals:
            last = intervals[-1]
            rates = ", ".join(
                f"{key}={value:.0f}/s"
                for key, value in sorted(last.get("rates", {}).items())
                if value
            )
            if rates:
                print(f"last interval rates: {rates}")

    slo = payload.get("slo")
    if isinstance(slo, dict) and slo.get("objectives"):
        print()
        table = ExperimentResult(
            experiment_id="obs",
            title="SLO objectives",
            headers=["slo", "intervals", "violations", "burn_rate",
                     "status"],
            rows=[
                [
                    o.get("slo"),
                    o.get("intervals"),
                    o.get("violations"),
                    round(o.get("burn_rate", 0.0), 3),
                    "VIOLATING" if o.get("violating_now") else "ok",
                ]
                for o in slo["objectives"]
            ],
        )
        print(table.render())
    return 0


def _http_get(url: str, timeout: float = 5.0) -> "tuple[int, bytes]":
    """GET ``url``; returns (status, body) — non-2xx is not an exception."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _render_top_frame(
    base: str, iteration: int, interval: float
) -> "list[str]":
    """One ``ebs-repro top`` frame, as lines (fetches all endpoints)."""
    from repro.obs.promtext import parse_promtext

    lines: List[str] = [
        f"ebs-repro top — {base} — every {interval:g}s — frame {iteration}",
        "",
    ]
    status, body = _http_get(base + "/healthz")
    health = json.loads(body)
    verdict = "HEALTHY" if health.get("healthy") else "UNHEALTHY"
    running = "running" if health.get("running") else "not running"
    lines.append(f"health: {verdict} ({status}) — pipeline {running}")
    for name, stage in sorted((health.get("stages") or {}).items()):
        age = stage.get("last_beat_age_s")
        lines.append(
            f"  stage {name:8s} {'alive' if stage.get('alive') else 'done ':5s}"
            f" last beat {age if age is not None else '-'}s ago"
        )
    for name, ring in sorted((health.get("rings") or {}).items()):
        state = "closed" if ring.get("closed") else "open"
        lines.append(f"  ring  {name:16s} depth {ring.get('depth')} ({state})")
    for error in health.get("errors") or []:
        lines.append(f"  error: {error}")

    status, body = _http_get(base + "/recorder")
    if status == 200:
        recorder = json.loads(body)
        intervals = recorder.get("intervals") or []
        lines.append("")
        lines.append(
            f"recorder: {recorder.get('samples_taken', 0)} sample(s), "
            f"{len(intervals)} kept"
        )
        if intervals:
            last = intervals[-1]
            for key, value in sorted(last.get("rates", {}).items()):
                lines.append(f"  {key:44s} {value:12.1f}/s")
            for key, value in sorted(last.get("probes", {}).items()):
                lines.append(f"  {key:44s} {value:12.0f}")

    slo = health.get("slo")
    if slo and slo.get("objectives"):
        lines.append("")
        lines.append("slo:")
        for objective in slo["objectives"]:
            state = "VIOLATING" if objective.get("violating_now") else "ok"
            lines.append(
                f"  {objective.get('slo'):44s} burn "
                f"{objective.get('burn_rate', 0.0):8.3f}  {state}"
            )

    status, body = _http_get(base + "/metrics")
    samples = parse_promtext(body.decode("utf-8"))
    counters = [s for s in samples if s.name.endswith("_total")]
    if counters:
        lines.append("")
        lines.append("counters:")
        for sample in counters[:12]:
            labels = ",".join(f"{k}={v}" for k, v in sample.labels)
            label_text = f"{{{labels}}}" if labels else ""
            lines.append(
                f"  {sample.name + label_text:44s} {sample.value:12.0f}"
            )
    return lines


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard: poll a ``--serve`` endpoint and render a view."""
    import time as _time
    import urllib.error

    host, port = _parse_serve(args.connect)
    base = f"http://{host}:{port}"
    interval = args.interval
    if interval <= 0:
        raise ReproError(f"--interval must be > 0, got {interval}")
    iteration = 0
    connected = False
    try:
        while True:
            iteration += 1
            try:
                lines = _render_top_frame(base, iteration, interval)
            except (urllib.error.URLError, ConnectionError, OSError) as error:
                if not connected:
                    raise ReproError(
                        f"cannot connect to {base}: {error} — is "
                        "'ebs-repro live --serve' running?"
                    ) from error
                print(f"server at {base} went away (run finished?)")
                return 0
            connected = True
            if not args.no_clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print("\n".join(lines))
            sys.stdout.flush()
            if args.iterations and iteration >= args.iterations:
                return 0
            _time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


# -- parser ------------------------------------------------------------------


def _add_redundancy_flags(command: argparse.ArgumentParser) -> None:
    """Redundancy flags shared by the study-building subcommands."""
    command.add_argument(
        "--redundancy",
        metavar="SPEC",
        default=None,
        help="place every segment redundantly: 'r=N' for N-way "
        "replication or 'ec=K+M' for a (K, M) erasure code; 'r=1' "
        "reproduces the single-copy study bit-for-bit",
    )
    command.add_argument(
        "--read-policy",
        choices=_READ_POLICIES,
        default=None,
        dest="read_policy",
        help="how reads spread over a segment's copies (default: "
        "primary; ignored without --redundancy r>1 / ec)",
    )


def _int_at_least(low: int):
    """An argparse ``type=`` for integers >= ``low``.

    A smaller value is a usage error naming the flag (``argument
    --chunk-epochs: must be >= 1, got 0``), raised before any build.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}"
            )
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value"
    return parse


def _add_streaming_flags(command: argparse.ArgumentParser) -> None:
    """Out-of-core execution flags shared by ``run`` and ``export-dataset``."""
    command.add_argument(
        "--chunk-epochs",
        type=_int_at_least(1),
        default=None,
        metavar="K",
        dest="chunk_epochs",
        help="stream the simulation in time shards of K >= 1 epochs "
        "(1 epoch = 60 simulated seconds); results are byte-identical "
        "to a monolithic run for any K.  --scale large/xlarge default "
        f"to {DEFAULT_CHUNK_EPOCHS}",
    )
    command.add_argument(
        "--max-rss-mb",
        type=_int_at_least(1),
        default=None,
        metavar="MB",
        dest="max_rss_mb",
        help="advisory memory ceiling for the streaming engine: VD "
        "batches are sized so one batch of series stays well inside it "
        "(implies streaming; never changes results)",
    )
    command.add_argument(
        "--shard-dir",
        metavar="DIR",
        default=None,
        dest="shard_dir",
        help="directory for the on-disk shard store (implies streaming; "
        "default: a per-run temp dir, purged after the run)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebs-repro",
        description="Reproduce the EuroSys '25 EBS traffic-skewness study "
        "on a synthetic fleet.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="debug logging on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="errors only on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiment ids")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. table3, or 'all'")
    run.add_argument("--scale", choices=_SCALES, default="small")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--duration-seconds",
        type=_int_at_least(1),
        default=None,
        metavar="SECONDS",
        dest="duration_seconds",
        help="override the scale preset's simulated duration (e.g. a "
        "tiny-duration xlarge smoke run); same fleet, shorter horizon",
    )
    run.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="write the results as a versioned JSON payload "
        "(result_schema_version; check with 'ebs-repro obs validate')",
    )
    run.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="record run telemetry (metrics + spans) and write it here; "
        "inspect with 'ebs-repro obs report FILE'",
    )
    run.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        dest="fault_plan",
        help="inject a deterministic fault schedule (JSON, see "
        "docs/fault-injection.md) into every simulated DC",
    )
    _add_redundancy_flags(run)
    _add_streaming_flags(run)
    run.add_argument(
        "--digest",
        metavar="FILE",
        default=None,
        help="write per-DC SHA-256 result digests as JSON; two runs with "
        "the same seed must produce identical digests regardless of "
        "--chunk-epochs (the nightly parity job diffs these)",
    )

    live = sub.add_parser(
        "live",
        help="run the live ingestion service on a bounded synthetic replay",
    )
    live.add_argument("--scale", choices=_SCALES, default="small")
    live.add_argument("--seed", type=int, default=7)
    live.add_argument(
        "--duration",
        type=int,
        default=60,
        metavar="SECONDS",
        help="trace seconds to synthesize and replay (per loop)",
    )
    live.add_argument(
        "--rate",
        default="max",
        metavar="MULT",
        help="replay speed over trace time: a number, 'NNNx', or 'max' "
        "(as fast as the pipeline accepts; default)",
    )
    live.add_argument(
        "--window",
        type=int,
        default=10,
        dest="window_seconds",
        metavar="SECONDS",
        help="rolling-statistics window, in trace seconds",
    )
    live.add_argument(
        "--batch-events",
        type=int,
        default=2048,
        dest="batch_events",
        metavar="N",
        help="events per injected batch (the pipeline's unit of transfer)",
    )
    live.add_argument(
        "--ring-capacity",
        type=int,
        default=64,
        dest="ring_capacity",
        metavar="N",
        help="event ring capacity, in batches (the backpressure bound)",
    )
    live.add_argument(
        "--overflow",
        choices=("block", "drop"),
        default="block",
        help="full-ring policy: block the injector (lossless) or drop "
        "batches with accounting",
    )
    live.add_argument(
        "--loops",
        type=int,
        default=1,
        help="replay the trace N times back to back (benchmark mode)",
    )
    live.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="write the live report (windows, decisions, top segments) "
        "as JSON",
    )
    live.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="record live.* metrics (queue depth, decision latency, "
        "events/sec) and write them here",
    )
    live.add_argument(
        "--serve",
        metavar="HOST:PORT",
        default=None,
        help="expose GET /metrics (Prometheus text), /snapshot, /healthz "
        "and /recorder over HTTP while the replay runs; port 0 picks a "
        "free port (logged).  Watch it with 'ebs-repro top --connect'",
    )
    live.add_argument(
        "--recorder-interval",
        type=float,
        default=1.0,
        dest="recorder_interval",
        metavar="SECONDS",
        help="flight-recorder sampling interval (rates and queue depths "
        "per interval, kept in a bounded ring in the telemetry artifact)",
    )
    live.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="SPEC",
        help="declare an SLO, evaluated per recorder interval: "
        "'live.decision_latency_us:p99<500' (histogram quantile) or "
        "'live.events_dropped/live.events_total<0.01' (rate ratio); "
        "repeatable",
    )
    live.add_argument(
        "--slo-budget",
        type=float,
        default=0.01,
        dest="slo_budget",
        metavar="FRACTION",
        help="error budget: fraction of intervals allowed to violate "
        "before burn_rate exceeds 1",
    )

    top = sub.add_parser(
        "top",
        help="live dashboard: poll a --serve endpoint and render the "
        "pipeline's health, rates, and SLO burn in the terminal",
    )
    top.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'ebs-repro live --serve HOST:PORT'",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll/refresh interval",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N frames (default: until interrupted or the "
        "server goes away)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        dest="no_clear",
        help="append frames instead of clearing the screen (script/CI "
        "friendly)",
    )

    balance = sub.add_parser(
        "balance",
        help="hbal-style global balancing: plan, apply, or score a "
        "cluster snapshot",
    )
    balance.add_argument(
        "mode",
        choices=("plan", "apply", "score"),
        help="plan: compute a move plan; apply: replay a saved plan "
        "onto the state (verified); score: report badness only "
        "(dry run)",
    )
    balance.add_argument("--scale", choices=_SCALES, default="small")
    balance.add_argument("--seed", type=int, default=7)
    balance.add_argument(
        "--dc",
        type=int,
        default=0,
        help="which simulated DC to snapshot (0-based)",
    )
    balance.add_argument(
        "--direction",
        choices=("read", "write", "total"),
        default="total",
        help="traffic direction the utilizations aggregate",
    )
    balance.add_argument(
        "--state",
        metavar="FILE",
        default=None,
        help="load the ClusterState snapshot from FILE instead of "
        "simulating one (fast path; see --save-state)",
    )
    balance.add_argument(
        "--save-state",
        metavar="FILE",
        default=None,
        dest="save_state",
        help="write the (loaded or simulated) snapshot as canonical JSON",
    )
    balance.add_argument(
        "--plan",
        metavar="FILE",
        default=None,
        dest="plan_file",
        help="(apply) the move plan to replay; its pinned state digest "
        "and every per-move score are re-verified exactly",
    )
    balance.add_argument(
        "--planner",
        choices=("greedy", "fixed-trigger"),
        default="greedy",
        help="greedy: hbal-style descent to the min-gain floor; "
        "fixed-trigger: the paper's threshold mechanisms (§4.3/§6)",
    )
    balance.add_argument(
        "--min-gain",
        type=float,
        default=None,
        dest="min_gain",
        metavar="GAIN",
        help="stop when the best move's badness gain drops below GAIN",
    )
    balance.add_argument(
        "--max-moves",
        type=int,
        default=128,
        dest="max_moves",
        metavar="N",
        help="plan at most N moves",
    )
    balance.add_argument(
        "--weights",
        metavar="NODE:WT:BS",
        default=None,
        help="badness dimension weights (default 1:1:1)",
    )
    balance.add_argument(
        "--trigger-ratio",
        type=float,
        default=1.2,
        dest="trigger_ratio",
        metavar="RATIO",
        help="(fixed-trigger) hot/cold ratio that fires a trigger",
    )
    balance.add_argument(
        "--no-qp-rebinds",
        action="store_true",
        dest="no_qp_rebinds",
        help="exclude the QP->WT rebind move family",
    )
    balance.add_argument(
        "--no-vd-rehomes",
        action="store_true",
        dest="no_vd_rehomes",
        help="exclude the VD re-home move family (greedy only)",
    )
    balance.add_argument(
        "--no-segment-moves",
        action="store_true",
        dest="no_segment_moves",
        help="exclude the segment-migration move family",
    )
    balance.add_argument(
        "--exclude-qps",
        metavar="IDS",
        default=None,
        dest="exclude_qps",
        help="comma-separated QP ids pinned in place (greedy only)",
    )
    balance.add_argument(
        "--exclude-vds",
        metavar="IDS",
        default=None,
        dest="exclude_vds",
        help="comma-separated VD ids pinned in place, QPs included "
        "(greedy only)",
    )
    balance.add_argument(
        "--exclude-segments",
        metavar="IDS",
        default=None,
        dest="exclude_segments",
        help="comma-separated segment ids pinned in place (greedy only)",
    )
    balance.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        dest="fault_plan",
        help="fold a fault schedule into the simulated build; a "
        "migration_blackout event also suppresses segment moves "
        "(see docs/fault-injection.md)",
    )
    balance.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="record balance.* telemetry (spans, counters, gain "
        "histogram) and write it here",
    )
    balance.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="plan: write the move plan JSON; apply: write the applied "
        "state; score: write the score report",
    )
    _add_redundancy_flags(balance)
    _add_streaming_flags(balance)

    export = sub.add_parser(
        "export-dataset", help="simulate and write the datasets to disk"
    )
    export.add_argument(
        "-o",
        "--output",
        metavar="DIR",
        required=True,
        help="output directory for the exported datasets",
    )
    export.add_argument("--scale", choices=_SCALES, default="small")
    export.add_argument("--seed", type=int, default=7)
    export.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="record run telemetry (metrics + spans) and write it here",
    )
    export.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        dest="fault_plan",
        help="inject a deterministic fault schedule into the exported build",
    )
    _add_redundancy_flags(export)
    _add_streaming_flags(export)

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep through the content-addressed cache",
    )
    sweep.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment id(s) to run at every sweep point, or 'all'",
    )
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="FIELD=V1,V2",
        help="sweep one StudyConfig field over comma-separated values "
        "(repeatable; ':' builds tuples, KiB/MiB/GiB suffixes allowed), "
        "e.g. --axis cache_min_traces=300,500 "
        "--axis lending_rates=0.1:0.3,0.2:0.5",
    )
    sweep.add_argument("--scale", choices=_SCALES, default="small")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact-store directory; reuse it across sweeps so "
        "overlapping points share work and interrupted runs resume "
        "(default: throwaway temp dir)",
    )
    sweep.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="write the sweep outcome (grids + cache stats) as JSON",
    )
    sweep.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="process fan-out across ready DAG nodes; results are "
        "identical for any worker count",
    )
    sweep.add_argument(
        "--retries",
        type=_int_at_least(0),
        default=1,
        help="per-node retry budget for transient failures",
    )
    sweep.add_argument(
        "--chunk-epochs",
        type=_int_at_least(1),
        default=None,
        metavar="K",
        dest="chunk_epochs",
        help="run build nodes through the streaming engine in shards of "
        "K >= 1 epochs (cache keys and results are unchanged); as for "
        "'run', --scale large/xlarge stream by default",
    )
    sweep.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="record sweep telemetry (sweep.* metrics + spans) here",
    )
    sweep.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        dest="fault_plan",
        help="inject a deterministic fault schedule into every point's "
        "simulated DCs (folded into the cache keys)",
    )

    obs = sub.add_parser(
        "obs", help="inspect, export, or validate a telemetry artifact"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    report = obs_sub.add_parser(
        "report", help="render a run summary (stages, counters, histograms)"
    )
    report.add_argument("telemetry_file")

    obs_export = obs_sub.add_parser(
        "export", help="convert the artifact to another format"
    )
    obs_export.add_argument("telemetry_file")
    obs_export.add_argument(
        "--format", choices=EXPORT_FORMATS, default="chrome-trace",
        help="chrome-trace loads at chrome://tracing or ui.perfetto.dev",
    )
    obs_export.add_argument(
        "-o", "--output", default=None,
        help="output file (default: stdout)",
    )

    validate = obs_sub.add_parser(
        "validate", help="check an artifact against the telemetry schema"
    )
    validate.add_argument("telemetry_file")

    promcheck = obs_sub.add_parser(
        "promcheck",
        help="validate a Prometheus text-exposition document (e.g. a "
        "saved /metrics scrape); '-' reads stdin",
    )
    promcheck.add_argument("promtext_file")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "balance": _cmd_balance,
        "live": _cmd_live,
        "top": _cmd_top,
        "export-dataset": _cmd_export,
        "sweep": _cmd_sweep,
        "obs": _cmd_obs,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``, ``| grep -q``).
        # Point stdout at devnull so the interpreter's last flush cannot
        # raise again, and exit cleanly: the reader has what it wanted.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as error:
        cause = error.__cause__
        if cause is not None and cause is not error:
            # Surface the chained root cause; -v gets its full traceback.
            _LOG.error(
                "%s (caused by %s: %s)", error, type(cause).__name__, cause
            )
            _LOG.debug("original traceback:", exc_info=cause)
        else:
            _LOG.error(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
