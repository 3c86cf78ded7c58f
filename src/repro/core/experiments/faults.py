"""Fault-injection experiments: failure sensitivity under skewed traffic.

Not a paper table — these extend the reproduction with the degraded-mode
questions the paper's production narrative raises (§2.2, §4.3, §6): how
much of the offered load survives component failures under each redirect
policy, and how the inter-BS balancer behaves around control-plane
blackouts and BlockServer crash/recovery cycles.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.balancer.importer import make_importer
from repro.balancer.interbs import (
    BalancerConfig,
    InterBsBalancer,
    segment_period_matrix,
)
from repro.cluster.storage import StorageCluster
from repro.core.experiments import experiment
from repro.core.report import ExperimentResult
from repro.faults.generate import PlanShape, random_fault_plan
from repro.faults.plan import FaultKind, RedirectPolicy


def _worst_inflation(outcome) -> float:
    """Max in-window P99 inflation across fault windows (NaN if none)."""
    best = float("nan")
    for window in outcome.windows:
        value = window.p99_inflation
        if value == value and (best != best or value > best):
            best = value
    return best


@experiment("extra_faults", "Failure sensitivity by DC and redirect policy")
def extra_faults_sweep(study) -> ExperimentResult:
    """Re-simulate every DC under a seed-stable random fault plan.

    The same event schedule (crashes, stalls, degrade windows) is applied
    once per redirect policy, so the redirect-vs-queue columns are an
    apples-to-apples comparison on identical failure timing.  Each run
    goes through :meth:`Study.resimulate`: the study's redundancy
    settings and the DC's already generated traffic.  The DCs
    differ in skew mix (Table 3), which is what makes this a skew x
    failure sensitivity sweep.  Redundant placement does not model QP
    stalls, so under it the drawn plans lose their ``qp_stall`` events
    (after the draw: every single-copy plan is unchanged), and its crash
    adjustment fails reads over whatever the policy, so both policies'
    rows agree there; the notes say so only under redundancy.
    """
    redundant = study.config.simulation_config().redundancy_config()
    rows = []
    for result in study.results:
        fleet = result.fleet
        dc_id = fleet.config.dc_id
        shape = PlanShape.of_fleet(fleet, study.config.duration_seconds)
        for policy in (RedirectPolicy.REDIRECT, RedirectPolicy.QUEUE):
            plan = random_fault_plan(
                study.config.seed + dc_id,
                shape,
                num_events=8,
                policy=policy,
                label=f"extra_faults/dc{dc_id}",
            )
            if redundant is not None:
                plan = replace(plan, events=tuple(
                    event for event in plan.events
                    if event.kind is not FaultKind.QP_STALL
                ))
            outcome = study.resimulate(
                result, fault_plan=plan, outputs={"faults"}
            ).faults
            acct = outcome.accounting
            delivered_pct = (
                100.0 * acct.delivered_storage_ios / acct.offered_storage_ios
                if acct.offered_storage_ios > 0
                else 100.0
            )
            storage_residual, compute_residual = (
                outcome.conservation_residual()
            )
            scale = max(acct.offered_storage_ios, 1.0)
            assert storage_residual / scale < 1e-6, "IO mass not conserved"
            assert compute_residual / max(
                acct.offered_compute_ios, 1.0
            ) < 1e-6, "compute IO mass not conserved"
            rows.append(
                [
                    f"DC-{dc_id + 1}",
                    policy.value,
                    len(plan),
                    round(delivered_pct, 3),
                    round(acct.redirected_ios, 1),
                    round(acct.queued_ios, 1),
                    round(
                        100.0 * outcome.dropped_fraction, 3
                    ),
                    round(
                        100.0 * outcome.degraded_latency_fraction, 2
                    ),
                    round(_worst_inflation(outcome), 2)
                    if not math.isnan(_worst_inflation(outcome))
                    else float("nan"),
                ]
            )
    return ExperimentResult(
        experiment_id="extra_faults",
        title="Failure sensitivity by DC and redirect policy",
        headers=[
            "cluster", "policy", "events", "% delivered", "redirected",
            "queued", "% dropped", "% degraded", "max P99 inflation",
        ],
        rows=rows,
        notes="Shape checks: redirect delivers at least as much as queue "
        "(queued mass past the horizon is dropped); delivered + dropped "
        "conserves the offered IO mass; degrade windows inflate the "
        "in-window P99 above the run-wide P99."
        + (
            ""
            if redundant is None
            else " Redundant placement does not model QP stalls: the "
            "drawn plans' qp_stall events are dropped, and 'events' "
            "counts the rest.  A crashed copy's reads fail over to a "
            "surviving copy and its writes are dropped whatever the "
            "policy, so the redirect and queue rows agree."
        ),
    )


@experiment(
    "extra_faults_lb", "Inter-BS balancing under blackout and BS failure"
)
def extra_faults_balancer(study) -> ExperimentResult:
    """The §6 balancer replayed around control-plane and BS faults.

    Four replays over the same write-traffic matrix of the first DC:
    a fault-free baseline; a migration blackout over the middle third of
    periods; a run with the hottest BS failed throughout (the importer
    fallback must route around it); and a crash/recovery cycle where the
    BS fails for the first half and recovers for the second — migrations
    resume post-recovery, which is the "recovery triggers re-balancing"
    wiring.
    """
    result = study.results[0]
    write = segment_period_matrix(
        result.metrics.storage,
        len(result.fleet.segments),
        study.config.duration_seconds,
        study.config.balancer_period_seconds,
        "write",
    )
    num_periods = write.shape[1]
    config = BalancerConfig(
        period_seconds=study.config.balancer_period_seconds
    )

    def _balancer(storage, mode):
        return InterBsBalancer(
            storage,
            config,
            make_importer("min_traffic"),
            rng=study.rngs.get(f"extra_faults_lb/{mode}"),
        )

    rows = []

    # Baseline, and identify the hottest BS under the initial placement.
    storage = StorageCluster(result.fleet)
    seg_bs = storage.primary_array()
    totals = np.zeros(storage.num_block_servers)
    np.add.at(totals, seg_bs, write.sum(axis=1))
    hot_bs = int(np.argmax(totals))
    run = _balancer(storage, "baseline").run(write)
    storage.check_invariants()
    rows.append(["baseline", run.num_migrations, 0, "-"])

    # Control-plane blackout over the middle third of the periods.
    lo, hi = num_periods // 3, 2 * num_periods // 3
    blackout = range(lo, hi)
    storage = StorageCluster(result.fleet)
    run = _balancer(storage, "blackout").run(
        write, blackout_periods=blackout
    )
    storage.check_invariants()
    frozen = sum(
        1 for m in run.migrations
        if lo <= m.timestamp // config.period_seconds < hi
    )
    rows.append(["blackout_mid_third", run.num_migrations, frozen, "-"])

    # Hottest BS failed for the whole replay: nothing may land on it.
    storage = StorageCluster(result.fleet)
    storage.fail_block_server(hot_bs)
    run = _balancer(storage, "bs_failed").run(write)
    storage.check_invariants()
    onto_failed = sum(1 for m in run.migrations if m.to_bs == hot_bs)
    rows.append(
        [f"bs{hot_bs}_failed", run.num_migrations, onto_failed, "0 required"]
    )

    # Crash for the first half, recover, then balance the second half:
    # the post-recovery phase shows migrations resuming.
    storage = StorageCluster(result.fleet)
    mid = num_periods // 2
    storage.fail_block_server(hot_bs)
    balancer = _balancer(storage, "crash_recover")
    first = balancer.run(write[:, :mid])
    storage.recover_block_server(hot_bs, timestamp=mid * config.period_seconds)
    second = balancer.run(write[:, mid:])
    storage.check_invariants()
    rows.append(
        [
            f"bs{hot_bs}_crash_recover",
            first.num_migrations + second.num_migrations,
            sum(1 for m in first.migrations if m.to_bs == hot_bs),
            f"{second.num_migrations} post-recovery",
        ]
    )

    return ExperimentResult(
        experiment_id="extra_faults_lb",
        title="Inter-BS balancing under blackout and BS failure",
        headers=["scenario", "migrations", "constrained", "note"],
        rows=rows,
        notes="Shape checks: zero migrations inside blackout periods; zero "
        "migrations onto a failed BS (importer fallback is serving-aware); "
        "migrations resume after the crash/recovery cycle.",
    )
