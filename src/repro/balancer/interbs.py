"""The inter-BlockServer segment balancer (§6, Algorithm 1) and its analyses.

The balancer operates in periods (30 s in the paper's Appendix C).  Each
period it computes the cluster's average BS traffic; every BS above
``trigger_ratio`` x average is an exporter and sheds its hottest segments
(until their summed traffic exceeds ``shed_fraction`` x average) to an
importer chosen by a pluggable strategy.  Following the production design,
balancing is driven by *write* traffic by default; the Write-then-Read mode
of §6.2.2 runs a second balancing pass on read traffic.

Analyses: frequent-migration detection (Fig 4(a)), normalized migration
intervals per importer strategy (Fig 4(b)), and per-period read/write CoV
under Write-Only vs Write-then-Read migration (Fig 5(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.balance.policies import choose_shed_segments
from repro.balance.state import ClusterState
from repro.balancer.importer import ImporterStrategy, MinTrafficImporter
from repro.cluster.storage import MigrationEvent, StorageCluster
from repro.stats.skewness import normalized_cov
from repro.trace.dataset import StorageMetricTable
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class BalancerConfig:
    """Parameters of Algorithm 1.

    ``max_segment_traffic_ratio`` is the migration admission constraint of
    §6.1.3: a segment whose current traffic exceeds this multiple of the
    cluster-average BS load is never migrated — dumping a hotter-than-a-
    whole-BS segment on any importer just moves the hotspot.  Set to None
    to disable (the literal Algorithm 1).
    """

    period_seconds: int = 30
    trigger_ratio: float = 1.2
    shed_fraction: float = 0.2
    max_segments_per_migration: int = 8
    max_segment_traffic_ratio: "float | None" = 1.0
    #: §6.1.3 reliability constraint: a BS may hold at most this many
    #: segments (None = unlimited).  An importer at the limit is skipped.
    max_segments_per_bs: "int | None" = None
    #: §6.1.3 anti-affinity: never migrate a segment onto a BS already
    #: holding another segment of the same VD.
    vd_anti_affinity: bool = False

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise ConfigError("period_seconds must be positive")
        if self.trigger_ratio <= 1.0:
            raise ConfigError("trigger_ratio must exceed 1")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ConfigError("shed_fraction must be in (0, 1]")
        if self.max_segments_per_migration < 1:
            raise ConfigError("max_segments_per_migration must be >= 1")
        if (
            self.max_segment_traffic_ratio is not None
            and self.max_segment_traffic_ratio <= 0
        ):
            raise ConfigError("max_segment_traffic_ratio must be positive")
        if self.max_segments_per_bs is not None and self.max_segments_per_bs < 1:
            raise ConfigError("max_segments_per_bs must be >= 1")


def segment_period_matrix(
    table: StorageMetricTable,
    num_segments: int,
    duration_seconds: int,
    period_seconds: int,
    direction: str,
) -> np.ndarray:
    """(num_segments, num_periods) traffic matrix from the storage metrics."""
    if direction == "read":
        values = table.read_bytes
    elif direction == "write":
        values = table.write_bytes
    elif direction == "total":
        values = table.read_bytes + table.write_bytes
    else:
        raise ConfigError(f"bad direction {direction!r}")
    if period_seconds <= 0 or duration_seconds <= 0:
        raise ConfigError("periods and duration must be positive")
    num_periods = -(-duration_seconds // period_seconds)
    periods = table.timestamp // period_seconds
    if periods.size and periods.max() >= num_periods:
        raise ConfigError(
            f"metric timestamps reach past duration_seconds={duration_seconds}"
        )
    # bincount adds each cell's rows in row order from 0.0.
    return np.bincount(
        table.segment_id * num_periods + periods,
        weights=values,
        minlength=num_segments * num_periods,
    ).reshape(num_segments, num_periods)


@dataclass
class BalancerRun:
    """Outcome of replaying the balancer over a metric dataset."""

    config: BalancerConfig
    num_periods: int
    migrations: List[MigrationEvent]
    bs_loads: np.ndarray          # (num_bs, num_periods) under live placement
    placement_history: List[Dict[int, int]] = field(default_factory=list)

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)


class InterBsBalancer:
    """Algorithm 1 with a pluggable importer strategy."""

    def __init__(
        self,
        storage: StorageCluster,
        config: BalancerConfig = BalancerConfig(),
        importer: "Optional[ImporterStrategy]" = None,
        rng: "Optional[np.random.Generator]" = None,
    ):
        self.storage = storage
        self.config = config
        self.importer = importer if importer is not None else MinTrafficImporter()
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def run(
        self,
        segment_traffic: np.ndarray,
        secondary_traffic: "Optional[np.ndarray]" = None,
        blackout_periods: "Optional[Sequence[int]]" = None,
    ) -> BalancerRun:
        """Replay the balancer; returns migrations and the live BS loads.

        ``segment_traffic`` is the (num_segments, num_periods) matrix the
        balancer acts on (write traffic in production).  If
        ``secondary_traffic`` is given (Write-then-Read), a second
        balancing pass per period migrates on it after the primary pass.

        ``blackout_periods`` (from a fault plan's migration-blackout
        windows, :meth:`repro.faults.timeline.FaultTimeline.blackout_periods`)
        lists period indices where the control plane is frozen: per-BS
        loads are still recorded, but no balance pass runs and no
        segment moves.
        """
        num_segments, num_periods = segment_traffic.shape
        if num_segments != self.storage.num_segments:
            raise ConfigError(
                f"traffic matrix has {num_segments} segments, storage has "
                f"{self.storage.num_segments}"
            )
        if secondary_traffic is not None and (
            secondary_traffic.shape != segment_traffic.shape
        ):
            raise ConfigError("secondary traffic shape mismatch")

        num_bs = self.storage.num_block_servers
        blackout = (
            frozenset(int(p) for p in blackout_periods)
            if blackout_periods is not None
            else frozenset()
        )
        bs_loads = np.zeros((num_bs, num_periods))
        migrations: List[MigrationEvent] = []
        placement_history: List[Dict[int, int]] = []

        # History of *primary* per-BS loads under the live placement; the
        # importer strategies consume this matrix.
        history = np.zeros((num_bs, num_periods))

        for period in range(num_periods):
            placement_history.append(self.storage.placement.primary_mapping())
            # The snapshot state accumulates in ascending-segment-id order,
            # exactly reproducing the historical per-period load path.
            state = ClusterState.from_storage(
                self.storage, segment_traffic[:, period]
            )
            loads = state.bs_utilization()
            history[:, period] = loads
            bs_loads[:, period] = loads
            if secondary_traffic is not None:
                np.add.at(
                    bs_loads[:, period],
                    state.seg_bs,
                    secondary_traffic[:, period],
                )

            if period in blackout:
                # Migration blackout: the control plane is down for this
                # period, so loads are observed but nothing moves.
                continue

            future = (
                self._future_loads(segment_traffic, period)
                if period + 1 < num_periods
                else None
            )
            migrations.extend(
                self._balance_pass(
                    segment_traffic, history, period, future
                )
            )
            if secondary_traffic is not None:
                sec_history = self._loads_under_current_placement(
                    secondary_traffic, period
                )
                sec_future = (
                    self._future_loads(secondary_traffic, period)
                    if period + 1 < num_periods
                    else None
                )
                migrations.extend(
                    self._balance_pass(
                        secondary_traffic, sec_history, period, sec_future
                    )
                )

        return BalancerRun(
            config=self.config,
            num_periods=num_periods,
            migrations=migrations,
            bs_loads=bs_loads,
            placement_history=placement_history,
        )

    # -- internals -------------------------------------------------------

    def _loads_under_current_placement(
        self, segment_traffic: np.ndarray, period: int
    ) -> np.ndarray:
        """(num_bs, period+1) history recomputed under today's placement.

        Used for the secondary (read) pass where no incremental history is
        maintained; strategies only look at a short recent window anyway.
        """
        state = ClusterState.from_storage(
            self.storage, segment_traffic[:, period]
        )
        num_bs = self.storage.num_block_servers
        history = np.zeros((num_bs, period + 1))
        for p in range(max(0, period - 8), period + 1):
            np.add.at(history[:, p], state.seg_bs, segment_traffic[:, p])
        return history

    def _future_loads(
        self, segment_traffic: np.ndarray, period: int
    ) -> np.ndarray:
        """True next-period per-BS loads under the current placement."""
        return ClusterState.from_storage(
            self.storage, segment_traffic[:, period + 1]
        ).bs_utilization()

    def _admissible(self, segment: int, importer: int) -> bool:
        """Check the §6.1.3 reliability constraints for one placement."""
        cfg = self.config
        if importer in self.storage.replicas_of(segment):
            # Width > 1: the primary must not land on a BS already
            # holding another copy of the same segment.
            return False
        resident = self.storage.primaries_on(importer)
        if (
            cfg.max_segments_per_bs is not None
            and len(resident) >= cfg.max_segments_per_bs
        ):
            return False
        if cfg.vd_anti_affinity:
            vd_id = self.storage.fleet.segments[segment].vd_id
            for other in resident:
                if self.storage.fleet.segments[other].vd_id == vd_id:
                    return False
        return True

    def _balance_pass(
        self,
        segment_traffic: np.ndarray,
        history: np.ndarray,
        period: int,
        future: "Optional[np.ndarray]",
    ) -> List[MigrationEvent]:
        cfg = self.config
        loads = history[:, period].copy()
        average = loads.mean()
        events: List[MigrationEvent] = []
        if average <= 0:
            return events
        timestamp = period * cfg.period_seconds
        exporters = np.nonzero(loads >= cfg.trigger_ratio * average)[0]
        for exporter in exporters:
            segments = sorted(self.storage.primaries_on(int(exporter)))
            if not segments:
                continue
            seg_arr = np.asarray(segments, dtype=np.int64)
            ceiling = (
                cfg.max_segment_traffic_ratio * average
                if cfg.max_segment_traffic_ratio is not None
                else float("inf")
            )
            chosen = choose_shed_segments(
                seg_arr,
                segment_traffic[seg_arr, period],
                cfg.shed_fraction * average,
                ceiling,
                cfg.max_segments_per_migration,
            )
            if not chosen:
                continue
            importer = self.importer.select(
                history, period, int(exporter), future=future, rng=self._rng
            )
            if importer == int(exporter):
                continue
            if not self.storage.is_serving(importer):
                # A decommissioned or currently-failed BS cannot import;
                # fall back to the least-loaded serving one.
                serving = [
                    bs
                    for bs in self.storage.serving_block_servers
                    if bs != int(exporter)
                ]
                if not serving:
                    continue
                importer = min(serving, key=lambda bs: history[bs, period])
            shed = 0.0
            for segment in chosen:
                if not self._admissible(segment, importer):
                    continue
                self.storage.migrate(segment, importer, timestamp=timestamp)
                events.append(self.storage.migration_log[-1])
                shed += float(segment_traffic[segment, period])
            # Algorithm 1 line 8: the importer's load is bumped so a later
            # exporter in the same period does not dump onto it again.
            history[importer, period] += shed
            if future is not None:
                future[importer] += shed
                future[int(exporter)] -= shed
        return events


# ---------------------------------------------------------------------------
# Fig 4(a): frequent-migration proportion
# ---------------------------------------------------------------------------

def frequent_migration_proportion(
    migrations: Sequence[MigrationEvent],
    window_seconds: int,
) -> float:
    """Share of migrations that are "frequent" at a window scale.

    A migration is frequent when, inside one time window, its BS has both
    an incoming and an outgoing migration — i.e. a segment enters a BS and
    (the same or another) segment leaves it shortly after (§6.1.1).
    Returns 0.0 when there are no migrations.
    """
    if window_seconds <= 0:
        raise ConfigError("window_seconds must be positive")
    if not migrations:
        return 0.0
    incoming: Dict[Tuple[int, int], int] = {}
    outgoing: Dict[Tuple[int, int], int] = {}
    for event in migrations:
        window = event.timestamp // window_seconds
        outgoing[(event.from_bs, window)] = (
            outgoing.get((event.from_bs, window), 0) + 1
        )
        incoming[(event.to_bs, window)] = (
            incoming.get((event.to_bs, window), 0) + 1
        )
    frequent = 0
    for event in migrations:
        window = event.timestamp // window_seconds
        if (
            incoming.get((event.from_bs, window), 0) > 0
            or outgoing.get((event.to_bs, window), 0) > 0
        ):
            frequent += 1
    return frequent / len(migrations)


# ---------------------------------------------------------------------------
# Fig 4(b): normalized migration intervals
# ---------------------------------------------------------------------------

def normalized_migration_intervals(
    migrations: Sequence[MigrationEvent],
    total_seconds: int,
) -> List[float]:
    """Per-BS gaps between consecutive outgoing migrations, / total time.

    Longer normalized intervals mean the balancer's placements stay valid
    for longer — the metric behind Fig 4(b).
    """
    if total_seconds <= 0:
        raise ConfigError("total_seconds must be positive")
    by_bs: Dict[int, List[int]] = {}
    for event in migrations:
        by_bs.setdefault(event.from_bs, []).append(event.timestamp)
    intervals: List[float] = []
    for timestamps in by_bs.values():
        ordered = sorted(set(timestamps))
        for a, b in zip(ordered, ordered[1:]):
            intervals.append((b - a) / total_seconds)
    return intervals


# ---------------------------------------------------------------------------
# Fig 5(a)/(c): per-BS CoV of read and write traffic
# ---------------------------------------------------------------------------

def per_bs_cov(
    bs_loads: np.ndarray, per_period: bool = False
) -> "float | List[float]":
    """Normalized CoV across BlockServers.

    With ``per_period`` False the CoV of total per-BS traffic is returned
    (Fig 5(a)); with True, one CoV per period (Fig 5(c)), skipping
    zero-traffic periods.
    """
    loads = np.asarray(bs_loads, dtype=float)
    if loads.ndim != 2:
        raise ConfigError("bs_loads must be (num_bs, num_periods)")
    if not per_period:
        totals = loads.sum(axis=1)
        return normalized_cov(totals) if totals.sum() > 0 else 0.0
    covs: List[float] = []
    for period in range(loads.shape[1]):
        column = loads[:, period]
        if column.sum() > 0:
            covs.append(normalized_cov(column))
    return covs
