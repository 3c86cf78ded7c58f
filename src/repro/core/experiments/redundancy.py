"""Redundancy experiments: replication/EC placement under skewed traffic.

Not a paper table — these extend the reproduction with the questions a
redundancy-aware placement raises on the paper's skewed traffic (§6):
how much inter-BS imbalance each redundancy level absorbs per skew
regime (the three DCs differ in skew mix, Table 3), what the write
fan-out costs, and how replicated reads ride through BlockServer
crashes by failing over instead of queueing.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.redundancy import RedundancyConfig
from repro.core.experiments import experiment
from repro.core.report import ExperimentResult
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.stats.skewness import normalized_cov

#: The redundancy ladder both experiments climb: single-copy baseline,
#: the paper-typical 3-way replication ladder, and a (4, 2) erasure
#: code.  Non-trivial levels steer reads with the least-loaded policy.
_LADDER = (
    ("r=1", "primary"),
    ("r=2", "least_loaded"),
    ("r=3", "least_loaded"),
    ("ec=4+2", "least_loaded"),
)


def _fits(spec: str, num_block_servers: int) -> bool:
    return RedundancyConfig.parse(spec).width <= num_block_servers


def _p99_latency_us(traces) -> float:
    """P99 of the end-to-end per-IO latency (NaN with no traces)."""
    if len(traces) == 0:
        return float("nan")
    total = (
        traces.lat_compute_us
        + traces.lat_frontend_us
        + traces.lat_block_server_us
        + traces.lat_backend_us
        + traces.lat_chunk_server_us
    )
    return float(np.percentile(total, 99))


@experiment(
    "redundancy_cov", "Inter-BS load CoV and tail latency vs redundancy"
)
def redundancy_cov(study) -> ExperimentResult:
    """Load CoV / P99 latency across the redundancy ladder, per DC.

    Each DC (skew regime) is re-simulated per redundancy level with the
    same seed through :meth:`Study.resimulate`, which reuses the DC's
    offered traffic.  ``r=1`` under the primary policy is the untouched
    single-copy baseline: on a fault-free single-copy study it is the
    study's own result, not a re-run.
    Spreading copies (and steering reads) flattens the per-BS load
    distribution, so the inter-BS CoV must drop monotonically along the
    replication ladder; the write fan-out column shows what that costs
    in delivered bytes.
    """
    rows = []
    monotone_dcs = 0
    num_dcs = 0
    for result in study.results:
        fleet = result.fleet
        dc_label = f"DC-{fleet.config.dc_id + 1}"
        num_bs = fleet.config.num_block_servers
        num_dcs += 1
        covs = []
        for spec, policy in _LADDER:
            if not _fits(spec, num_bs):
                rows.append(
                    [dc_label, spec, policy, float("nan"), float("nan"),
                     float("nan"), "skipped: too few BS"]
                )
                continue
            out = study.resimulate(
                result, redundancy=spec, read_policy=policy
            )
            totals = out.bs_load_bps.sum(axis=1)
            p99_us = _p99_latency_us(out.traces)
            # Release this rung's result before the next one is built:
            # holding it would add a whole run to the next rung's peak.
            del out
            cov = normalized_cov(totals)
            if spec.startswith("r="):
                covs.append(cov)
            baseline_bytes = result.bs_load_bps.sum()
            fanout = (
                float(totals.sum() / baseline_bytes)
                if baseline_bytes > 0
                else float("nan")
            )
            rows.append(
                [
                    dc_label,
                    spec,
                    policy,
                    round(cov, 4),
                    round(p99_us, 1),
                    round(fanout, 3),
                    "",
                ]
            )
        if covs == sorted(covs, reverse=True):
            monotone_dcs += 1
    return ExperimentResult(
        experiment_id="redundancy_cov",
        title="Inter-BS load CoV and tail latency vs redundancy",
        headers=[
            "cluster", "redundancy", "read policy", "load CoV",
            "P99 latency (us)", "byte fan-out", "note",
        ],
        rows=rows,
        notes=(
            f"Shape checks: {monotone_dcs}/{num_dcs} DCs show a "
            "monotone load-CoV reduction along the replication ladder "
            "r=1 -> r=2 -> r=3; the byte fan-out grows with the write "
            "amplification of each scheme (r for replication, (k+m)/k "
            "per written byte for EC)."
        ),
    )


@experiment(
    "redundancy_faults", "Redundancy x fault-plan interaction (failover)"
)
def redundancy_faults(study) -> ExperimentResult:
    """A BlockServer crash replayed across the redundancy ladder.

    The hottest BS of the first DC crashes for the middle third of the
    run under the ``queue`` redirect policy.  Single-copy runs hold the
    affected IOs until recovery (queued mass); redundant runs fail
    reads over to a surviving copy instead (redirected mass) and defer
    the downed copy's writes to re-replication (dropped mass).  The IO
    mass conservation check delivered + dropped == offered holds for
    every level.
    """
    result = study.results[0]
    fleet = result.fleet
    num_bs = fleet.config.num_block_servers
    duration = study.config.duration_seconds
    hot_bs = int(np.argmax(result.bs_load_bps.sum(axis=1)))
    plan = FaultPlan(
        events=(
            FaultEvent(
                kind=FaultKind.BS_CRASH,
                start_s=duration // 3,
                end_s=2 * duration // 3,
                target=hot_bs,
            ),
        ),
        policy=RedirectPolicy.QUEUE,
    )
    rows = []
    for spec, policy in _LADDER:
        if not _fits(spec, num_bs):
            rows.append(
                [spec, policy, float("nan"), float("nan"), float("nan"),
                 float("nan"), "skipped: too few BS"]
            )
            continue
        out = study.resimulate(
            result, redundancy=spec, read_policy=policy, fault_plan=plan
        )
        faults = out.faults
        # Only the fault outcome is read: release the rung's datasets
        # before the next one is built.
        del out
        acct = faults.accounting
        offered = max(acct.offered_storage_ios, 1.0)
        storage_residual, compute_residual = faults.conservation_residual()
        assert storage_residual / offered < 1e-6, "IO mass not conserved"
        assert compute_residual / max(
            acct.offered_compute_ios, 1.0
        ) < 1e-6, "compute IO mass not conserved"
        rows.append(
            [
                spec,
                policy,
                round(100.0 * acct.delivered_storage_ios / offered, 3),
                round(acct.redirected_ios, 1),
                round(acct.queued_ios, 1),
                round(acct.dropped_storage_ios, 1),
                f"bs{hot_bs} down "
                f"[{duration // 3}s, {2 * duration // 3}s)",
            ]
        )
    return ExperimentResult(
        experiment_id="redundancy_faults",
        title="Redundancy x fault-plan interaction (failover)",
        headers=[
            "redundancy", "read policy", "% delivered", "failover",
            "queued", "dropped", "note",
        ],
        rows=rows,
        notes=(
            "Shape checks: the single-copy run queues the crashed BS's "
            "IOs until recovery; redundant runs queue nothing — reads "
            "fail over to surviving copies and the downed copy's writes "
            "defer to re-replication; delivered + dropped conserves the "
            "offered IO mass at every level."
        ),
    )
