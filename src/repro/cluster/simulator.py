"""The end-to-end EBS simulator producing the DiTing datasets.

``EBSSimulator.run()`` drives every VD's offered load (from
:class:`repro.workload.WorkloadGenerator`) through the stack:

1. QPs are bound to worker threads by the hypervisor's round-robin balancer;
   per-second traffic splits over QPs by the VD's QP weights, yielding the
   compute-domain metric table (one row per active QP-second, Table 1).
2. Traffic splits over segments by the LBA model's segment weights; the
   current segment-to-BS placement yields the storage-domain metric table.
3. A sampled subset of individual IOs becomes the trace dataset: opcodes,
   sizes, LBA offsets from the hotspot model, the stack path, and the five
   per-component latencies (load-dependent via per-second WT/BS utilization).

Rows below the recording thresholds are dropped, mirroring a production
metric pipeline that does not emit all-zero aggregates.

Pass 1 (metric tables + load grids) stacks the per-VD series into
``(entity, second)`` weight matrices and emits rows with one mask per
table.  It is *bit-identical* to the scalar per-VD/per-QP loops kept as
the test oracle in ``tests/oracles/pass1.py`` (same multiplication
operands, same accumulation order, same row order).

Pass 2 (sampled traces) draws per-VD random streams from label-keyed child
RNGs, so it can optionally fan out over a ``ProcessPoolExecutor`` without
changing any output: results are seed-stable regardless of worker count.

One code path runs every simulation.  It reads the offered traffic from a
:class:`TrafficSource`, cut along time into shards and along the VD axis
into chunks.  A run in memory (:class:`InMemoryTraffic`) is a single
shard ``[0, T)``: its series are the stacked ``(num_vds, T)`` matrices,
and nothing is spilled.  A streamed run reads the same body shard by
shard and batch by batch from a shard store
(:class:`repro.engine.shards.StreamedTraffic`).  Pass 1 runs once per
shard, and the parts merge into the tables and grids a
single-shard run emits.  So results, redundancy and fault handling
included, do not depend on the shard geometry.
"""

from __future__ import annotations

import abc
import contextlib
import copy
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.latency import LatencyConfig, LatencyModel
from repro.cluster.redundancy import (
    READ_POLICY_NAMES,
    RedundancyConfig,
    ReplicaExpansion,
    build_expansion,
    check_plan_compatible,
    redundancy_fault_inputs,
    ring_table,
)
from repro.cluster.storage import StorageCluster
from repro.faults.outcome import (
    FaultOutcome,
    compute_window_stats,
    empty_trace_stats,
    merge_trace_stats,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.timeline import (
    FaultAccounting,
    FaultAdjustedInputs,
    FaultTimeline,
)
from repro.obs.runtime import (
    Telemetry,
    get_telemetry,
    peak_rss_bytes,
    set_telemetry,
)
from repro.trace.dataset import (
    ComputeMetricTable,
    MetricDataset,
    SpecDataset,
    StorageMetricTable,
    TraceDataset,
)
from repro.trace.sampling import TraceSampler
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.util.units import GiB
from repro.workload.fleet import Fleet
from repro.workload.generator import VdTraffic, WorkloadGenerator

_MIN_IO_BYTES = 512
_MAX_IO_BYTES = 4 * 1024 * 1024

#: Upper bound on the number of (entity, second) cells materialized at once
#: by the vectorized pass 1; keeps peak memory flat on huge fleets.
_FAST_PASS_CHUNK_CELLS = 4 * 1024 * 1024


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run."""

    duration_seconds: int = 1200
    trace_sampling_rate: float = 1.0 / 200.0
    min_record_bytes: float = 1024.0
    min_record_iops: float = 0.5
    diurnal_amplitude: float = 0.3
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    wt_capacity_bps: float = 2.0 * GiB
    bs_capacity_bps: float = 4.0 * GiB
    #: Redundancy spec ("r=3" / "ec=4+2"); None (or "r=1") keeps the
    #: single-copy paths byte-identical.
    redundancy: "Optional[str]" = None
    #: Read-assignment policy over a segment's copies (ignored at r=1,
    #: where there is one copy to read): primary | least_loaded |
    #: power_of_two | water_filling.
    read_policy: str = "primary"

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ConfigError("duration_seconds must be positive")
        if not 0.0 < self.trace_sampling_rate <= 1.0:
            raise ConfigError("trace_sampling_rate must be in (0, 1]")
        if self.min_record_bytes < 0 or self.min_record_iops < 0:
            raise ConfigError("recording thresholds must be non-negative")
        if self.wt_capacity_bps <= 0 or self.bs_capacity_bps <= 0:
            raise ConfigError("capacities must be positive")
        if self.redundancy is not None:
            RedundancyConfig.parse(self.redundancy)  # raises on bad spec
        if self.read_policy not in READ_POLICY_NAMES:
            raise ConfigError(
                f"unknown read policy {self.read_policy!r}; choose one of "
                f"{', '.join(READ_POLICY_NAMES)}"
            )

    def redundancy_config(self) -> "Optional[RedundancyConfig]":
        """Parsed scheme, or None when redundancy is trivially single-copy
        (r=1 under any read policy: one copy leaves nothing to choose)."""
        if self.redundancy is None:
            return None
        scheme = RedundancyConfig.parse(self.redundancy)
        return None if scheme.is_trivial else scheme


@dataclass
class SimulationResult:
    """Everything a study needs downstream of one simulator run."""

    fleet: Fleet
    config: SimulationConfig
    metrics: MetricDataset
    traces: TraceDataset
    specs: SpecDataset
    hypervisors: HypervisorSet
    storage: StorageCluster
    traffic: List[VdTraffic]
    wt_load_bps: np.ndarray  # (num_wts, duration) total bytes/s per WT
    bs_load_bps: np.ndarray  # (num_bs, duration) total bytes/s per BS
    #: Failure attribution; None for failure-free runs, so every existing
    #: dataset, schema, and digest is untouched when no plan is given.
    faults: "Optional[FaultOutcome]" = None


class _ColumnBuffer:
    """Accumulates per-VD column chunks, concatenated once at the end.

    The empty fallback is dtyped per field: an integer column of a
    zero-traffic simulation must still come out as ``int64``, not as the
    float64 ``np.zeros(0)`` default (regression: quiet fleets used to
    yield float columns where the datasets expect ints).
    """

    def __init__(
        self,
        int_fields: "tuple[str, ...]",
        float_fields: "tuple[str, ...]" = (),
    ):
        self._dtypes: Dict[str, np.dtype] = {
            name: np.dtype(np.int64) for name in int_fields
        }
        self._dtypes.update(
            {name: np.dtype(np.float64) for name in float_fields}
        )
        self._chunks: Dict[str, List[np.ndarray]] = {
            name: [] for name in self._dtypes
        }

    def append(self, **chunks: np.ndarray) -> None:
        for name, chunk in chunks.items():
            self._chunks[name].append(np.asarray(chunk))

    def concatenated(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, chunks in self._chunks.items():
            if not chunks:
                out[name] = np.zeros(0, dtype=self._dtypes[name])
            elif len(chunks) == 1:
                # Single-chunk columns (the vectorized pass emits one chunk
                # per table) skip the concatenate copy entirely.
                out[name] = chunks[0]
            else:
                out[name] = np.concatenate(chunks)
        return out


def _normalized_probabilities(weights: np.ndarray, label: str) -> np.ndarray:
    """Defensively re-normalize a weight vector for ``rng.choice(p=...)``.

    Upstream weight computation accumulates float drift; ``Generator.choice``
    rejects ``p`` whose sum strays more than ~1e-8 from 1.  Negative or
    non-finite weights indicate a real upstream bug and raise instead.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ConfigError(f"{label} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"{label} must be finite")
    if np.any(w < 0.0):
        raise ConfigError(f"{label} must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ConfigError(f"{label} must have positive mass")
    return w / total


@dataclass(frozen=True)
class _EntityArrays:
    """Flat per-QP / per-segment metadata, indexed by global entity id."""

    qp_vd: np.ndarray
    qp_vm: np.ndarray
    qp_user: np.ndarray
    qp_node: np.ndarray
    seg_vd: np.ndarray
    seg_vm: np.ndarray
    seg_user: np.ndarray


def stack_series(
    num_vds: int, traffic: "Sequence[VdTraffic]", t: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """``(read_b, write_b, read_i, write_i)`` as ``(num_vds, t)`` matrices."""
    out = tuple(np.zeros((num_vds, t)) for _ in range(4))
    for tr in traffic:
        for matrix, series in zip(out, (
            tr.read_bytes, tr.write_bytes, tr.read_iops, tr.write_iops
        )):
            matrix[tr.vd_id] = series
    return out  # type: ignore[return-value]


def stack_weights(
    fleet: Fleet,
    traffic: "Sequence[VdTraffic]",
    out: "Optional[tuple[np.ndarray, ...]]" = None,
) -> "tuple[np.ndarray, ...]":
    """``(qp_rw, qp_ww, seg_rw, seg_ww, vd_read_total, vd_write_total)``.

    The QP and segment weight vectors by global id, and each VD's
    horizon byte totals (the offered mass the load-aware read policies
    balance).  ``out`` is filled in place when given, so the spill can
    stack its VD batches one at a time.
    """
    if out is None:
        sizes = (len(fleet.queue_pairs), len(fleet.segments), len(fleet.vds))
        out = tuple(np.zeros(n) for n in sizes for _ in range(2))
    qp_rw, qp_ww, seg_rw, seg_ww, vd_read_total, vd_write_total = out
    for tr in traffic:
        vd = fleet.vds[tr.vd_id]
        qs = slice(vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs)
        qp_rw[qs] = tr.qp_read_weights
        qp_ww[qs] = tr.qp_write_weights
        ss = slice(vd.first_segment_id, vd.first_segment_id + vd.num_segments)
        seg_rw[ss] = tr.segment_read_weights
        seg_ww[ss] = tr.segment_write_weights
        vd_read_total[tr.vd_id] = float(tr.read_bytes.sum())
        vd_write_total[tr.vd_id] = float(tr.write_bytes.sum())
    return out


class TrafficSource(abc.ABC):
    """A run's offered traffic, as :meth:`EBSSimulator.run` reads it.

    :class:`InMemoryTraffic` holds a traffic list as one time shard;
    :class:`repro.engine.shards.StreamedTraffic` reads a shard store
    shard by shard (pass 1) and batch by batch (pass 2).
    """

    #: True for a shard store: the run then opens ``engine.*`` spans.
    streamed = False
    #: The horizon, in seconds.
    duration_seconds: int

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of VDs."""

    @abc.abstractmethod
    def shard_bounds(self) -> "List[Tuple[int, int]]":
        """Half-open ``[t0, t1)`` second ranges covering the horizon."""

    @abc.abstractmethod
    def shard_series(self, shard: int, arena) -> "tuple[np.ndarray, ...]":
        """One shard's :func:`stack_series` matrices (``arena`` may back
        them)."""

    @abc.abstractmethod
    def stacked_weights(self) -> "tuple[np.ndarray, ...]":
        """The first four arrays of :func:`stack_weights`."""

    @abc.abstractmethod
    def vd_totals(self) -> "tuple[np.ndarray, np.ndarray]":
        """The last two arrays of :func:`stack_weights`."""

    @abc.abstractmethod
    def pass2_chunks(self, workers: int) -> "List[Sequence[VdTraffic]]":
        """Fleet-ordered VD chunks for pass 2, each cheap to pickle."""

    @abc.abstractmethod
    def materialize(self) -> "List[VdTraffic]":
        """Every VD's traffic, in fleet order."""


class InMemoryTraffic(TrafficSource):
    """A traffic list held in memory: one time shard ``[0, T)`` whose
    series are the stacked ``(num_vds, T)`` matrices; nothing spills."""

    def __init__(self, fleet: Fleet, traffic: "Sequence[VdTraffic]"):
        self.fleet = fleet
        self.traffic = traffic
        self.duration_seconds = (
            int(traffic[0].read_bytes.size) if traffic else 0
        )
        self._weights = stack_weights(fleet, traffic)

    def __len__(self) -> int:
        return len(self.traffic)

    def shard_bounds(self):
        return [(0, self.duration_seconds)]

    def shard_series(self, shard, arena=None):
        return stack_series(
            len(self.fleet.vds), self.traffic, self.duration_seconds
        )

    def stacked_weights(self):
        return self._weights[:4]

    def vd_totals(self):
        return self._weights[4:]

    def pass2_chunks(self, workers: int):
        traffic = self.traffic
        workers = min(workers, len(traffic))
        if workers < 2:
            return [traffic]
        bounds = np.linspace(0, len(traffic), workers + 1).astype(int)
        return [traffic[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]

    def materialize(self):
        return list(self.traffic)


def _window_adjusted(
    adjusted: FaultAdjustedInputs, t0: int, t1: int
) -> FaultAdjustedInputs:
    """Slice fault-adjusted inputs to one shard window.

    Per-second series slice along time; ``seg_bs_ep`` stays whole (it is
    epoch-indexed) and ``epoch_index`` slices so ``ep_idx[ts]`` inside
    the windowed pass resolves the same epoch a whole-horizon pass sees
    at second ``t0 + ts``.
    """
    return replace(
        adjusted,
        qp_rb=adjusted.qp_rb[:, t0:t1],
        qp_wb=adjusted.qp_wb[:, t0:t1],
        qp_ri=adjusted.qp_ri[:, t0:t1],
        qp_wi=adjusted.qp_wi[:, t0:t1],
        seg_rb=adjusted.seg_rb[:, t0:t1],
        seg_wb=adjusted.seg_wb[:, t0:t1],
        seg_ri=adjusted.seg_ri[:, t0:t1],
        seg_wi=adjusted.seg_wi[:, t0:t1],
        epoch_index=adjusted.epoch_index[t0:t1],
    )


def _engine_span(source: TrafficSource, name: str, **labels):
    """An ``engine.*`` span for a streamed source; nothing in memory."""
    if source.streamed:
        return get_telemetry().span(name, **labels)
    return contextlib.nullcontext()


def _trace_chunk_worker(
    payload: "tuple[EBSSimulator, Sequence[VdTraffic], np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]",
) -> "tuple[List[Optional[Dict[str, np.ndarray]]], Optional[dict]]":
    """Module-level worker: per-VD trace columns for one chunk of VDs.

    Runs in a child process; a store-backed chunk reads its own VD
    batch there.  Each VD draws only from its own label-keyed RNG
    streams, so the output is identical no matter how VDs are
    partitioned over workers.  When the parent runs with telemetry
    enabled, the worker installs a fresh handle and ships its snapshot
    back for a deterministic merge (second tuple element, else None).
    """
    (
        simulator, chunk, qp_to_wt, seg_to_bs, wt_load, bs_load, telemetry_on,
    ) = payload
    telemetry = None
    previous = None
    if telemetry_on:
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
    try:
        with get_telemetry().span(
            "sim.pass2.chunk",
            dc=simulator.fleet.config.dc_id,
            vds=len(chunk),
        ):
            columns = [
                simulator._trace_columns_for_vd(
                    vd_traffic, qp_to_wt, seg_to_bs, wt_load, bs_load
                )
                for vd_traffic in chunk
            ]
    finally:
        if telemetry is not None:
            set_telemetry(previous)
    return columns, telemetry.snapshot() if telemetry is not None else None


class EBSSimulator:
    """Simulates one data center's EBS stack for a fixed duration."""

    def __init__(
        self,
        fleet: Fleet,
        config: SimulationConfig,
        rngs: RngFactory,
        fault_plan: "Optional[FaultPlan]" = None,
    ):
        self.fleet = fleet
        self.config = config
        self._rngs = rngs.child(f"sim/dc{fleet.config.dc_id}")
        self.latency_model = LatencyModel(config.latency)
        self._entities: Optional[_EntityArrays] = None
        #: Scratch-buffer arena for the fused pass-1 kernels, created
        #: lazily (and pickled as empty: it is pure scratch).  One
        #: simulator instance reuses the same buffers across every
        #: pass-1 call — i.e. across all shards of a streamed run.
        self._arena = None
        self.fault_plan = fault_plan
        #: Compiled once; an empty (or absent) plan compiles to None, so
        #: the failure-free paths run exactly today's code.
        self._timeline: Optional[FaultTimeline] = (
            FaultTimeline(fault_plan, fleet, config.duration_seconds)
            if fault_plan is not None and not fault_plan.is_empty
            else None
        )
        #: Parsed redundancy scheme; None when trivial (r=1), in which
        #: case every single-copy code path runs untouched.
        self._redundancy: Optional[RedundancyConfig] = (
            config.redundancy_config()
        )
        if self._redundancy is not None:
            self._redundancy.validate_against(fleet.config.num_block_servers)
            if self._timeline is not None:
                check_plan_compatible(self._timeline)
        #: Replica expansion (placement x read policy), built once per run
        #: by :meth:`prepare_redundancy` after bindings are known.
        self._expansion: Optional[ReplicaExpansion] = None

    # -- helpers -------------------------------------------------------------

    @property
    def _pass1_arena(self):
        """The lazily created kernel arena (import deferred: the engine
        package imports this module, so a top-level import would cycle)."""
        if self._arena is None:
            from repro.engine.arena import Arena

            self._arena = Arena()
        return self._arena

    def bindings(
        self, hypervisors: HypervisorSet, storage: StorageCluster
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(qp -> WT, segment -> BS) binding arrays for the current state."""
        fleet = self.fleet
        qp_to_wt = np.zeros(len(fleet.queue_pairs), dtype=np.int64)
        for qp_id, wt_id in hypervisors.binding_arrays().items():
            qp_to_wt[qp_id] = wt_id
        return qp_to_wt, storage.primary_array()

    def _entity_arrays(self) -> _EntityArrays:
        """Flat per-entity metadata (built once, cached)."""
        if self._entities is not None:
            return self._entities
        fleet = self.fleet
        vd_user = np.fromiter(
            (vd.user_id for vd in fleet.vds), dtype=np.int64,
            count=len(fleet.vds),
        )
        qp_vd = np.fromiter(
            (qp.vd_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=len(fleet.queue_pairs),
        )
        qp_vm = np.fromiter(
            (qp.vm_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=len(fleet.queue_pairs),
        )
        qp_node = np.fromiter(
            (qp.compute_node_id for qp in fleet.queue_pairs), dtype=np.int64,
            count=len(fleet.queue_pairs),
        )
        seg_vd = np.fromiter(
            (seg.vd_id for seg in fleet.segments), dtype=np.int64,
            count=len(fleet.segments),
        )
        vd_vm = np.fromiter(
            (vd.vm_id for vd in fleet.vds), dtype=np.int64,
            count=len(fleet.vds),
        )
        self._entities = _EntityArrays(
            qp_vd=qp_vd,
            qp_vm=qp_vm,
            qp_user=vd_user[qp_vd],
            qp_node=qp_node,
            seg_vd=seg_vd,
            seg_vm=vd_vm[seg_vd],
            seg_user=vd_user[seg_vd],
        )
        return self._entities

    # -- redundancy -----------------------------------------------------------

    def _source(self, traffic) -> TrafficSource:
        """``traffic`` as a source: a plain sequence is one in-memory shard."""
        if isinstance(traffic, TrafficSource):
            return traffic
        return InMemoryTraffic(self.fleet, traffic)

    def prepare_redundancy(
        self,
        traffic: "Sequence[VdTraffic] | TrafficSource",
        seg_to_bs: np.ndarray,
        table: "Optional[np.ndarray]" = None,
    ) -> "Optional[ReplicaExpansion]":
        """Build the replica expansion for this run's placement + traffic.

        ``table`` is the (num_segments, width) placement table (from
        ``storage.placement``); when omitted it is derived from the
        primary array by ring expansion — the same construction
        :class:`StorageCluster` starts from.  No-op (returns None) when
        redundancy is trivial.  Only the stacked weights and per-VD
        totals are read, so a streamed source never loads its series.
        """
        scheme = self._redundancy
        if scheme is None:
            self._expansion = None
            return None
        fleet = self.fleet
        num_bs = fleet.config.num_block_servers
        if table is None:
            table = ring_table(seg_to_bs, scheme.width, num_bs)
        ent = self._entity_arrays()
        source = self._source(traffic)
        _qp_rw, _qp_ww, seg_rw, seg_ww = source.stacked_weights()
        vd_read_total, vd_write_total = source.vd_totals()
        rng = (
            self._rngs.get("redundancy/policy")
            if self.config.read_policy == "power_of_two"
            else None
        )
        with get_telemetry().span(
            "sim.redundancy.expand",
            dc=fleet.config.dc_id,
            scheme=scheme.spec,
            policy=self.config.read_policy,
        ):
            self._expansion = build_expansion(
                scheme,
                self.config.read_policy,
                table,
                ent.seg_vd,
                ent.seg_vm,
                ent.seg_user,
                seg_rw,
                seg_ww,
                vd_read_total,
                vd_write_total,
                num_bs,
                rng=rng,
            )
        return self._expansion

    # -- pass 1: metric tables + load grids ----------------------------------

    def fault_adjusted_inputs(
        self,
        traffic: "Sequence[VdTraffic] | TrafficSource",
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
    ) -> "Optional[FaultAdjustedInputs]":
        """Fault-adjusted per-entity series for pass 1 and the outcome.

        None when there is no plan (or the plan has no crash/stall inside
        the horizon) — the no-fault code paths then run unchanged.
        Churn needs whole-horizon ``(num_vds, T)`` matrices, so a
        streamed source is materialized here: the documented memory
        trade-off of fault runs.
        """
        timeline = self._timeline
        if timeline is None or not timeline.has_churn:
            return None
        source = self._source(traffic)
        with get_telemetry().span(
            "sim.faults.adjust",
            dc=self.fleet.config.dc_id,
            events=len(timeline.events),
        ):
            traffic = source.materialize()
            series = stack_series(
                len(self.fleet.vds), traffic, self.config.duration_seconds
            )
            if self._redundancy is not None:
                if self._expansion is None:
                    self.prepare_redundancy(source, seg_to_bs)
                return redundancy_fault_inputs(
                    self._expansion,
                    timeline,
                    series,
                    source.stacked_weights(),
                )
            return timeline.adjust(
                traffic,
                qp_to_wt,
                seg_to_bs,
                series,
                source.stacked_weights(),
            )

    def run_pass1(
        self,
        traffic: "Sequence[VdTraffic] | TrafficSource",
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]" = None,
    ) -> "tuple[np.ndarray, np.ndarray, ComputeMetricTable, StorageMetricTable]":
        """Load grids + metric tables: pass 1 per time shard, then merge.

        A traffic list is one in-memory shard ``[0, T)``; a streamed
        source reloads its series one shard at a time.  Each shard runs
        :meth:`_pass1_fast` on its window and the parts merge
        (:func:`repro.engine.merge.merge_shard_parts`) into the tables a
        single whole-horizon pass emits, for any shard geometry.

        ``adjusted`` carries precomputed fault-adjusted inputs (so
        :meth:`run` computes them once for both passes and the outcome);
        when omitted they are derived here from the simulator's plan.
        """
        # Deferred: the engine package imports this module.
        from repro.engine.merge import ShardPart, merge_shard_parts

        source = self._source(traffic)
        if self._redundancy is not None and self._expansion is None:
            # Direct pass-1 callers (tests, benches) skip run(): derive
            # the expansion from the primary placement by ring expansion.
            self.prepare_redundancy(source, seg_to_bs)
        if adjusted is None:
            adjusted = self.fault_adjusted_inputs(source, qp_to_wt, seg_to_bs)
        weights = source.stacked_weights() if adjusted is None else None
        telemetry = get_telemetry()
        dc = self.fleet.config.dc_id
        parts: "List[ShardPart]" = []
        with telemetry.span("sim.pass1", dc=dc):
            for shard, (t0, t1) in enumerate(source.shard_bounds()):
                with _engine_span(
                    source, "engine.pass1.shard",
                    dc=dc, shard=shard, t0=t0, t1=t1,
                ):
                    if adjusted is None:
                        outputs = self._pass1_fast(
                            qp_to_wt, seg_to_bs,
                            stacked=source.shard_series(
                                shard, self._pass1_arena
                            ) + weights,
                            t0=t0,
                        )
                    else:
                        outputs = self._pass1_fast(
                            qp_to_wt, seg_to_bs,
                            adjusted=_window_adjusted(adjusted, t0, t1),
                            t0=t0,
                        )
                    parts.append(ShardPart(t0, t1, *outputs))
                    del outputs
            with _engine_span(
                source, "engine.merge", dc=dc, shards=len(parts)
            ):
                wt_load, bs_load, compute_table, storage_table = (
                    merge_shard_parts(parts)
                )
        self._record_pass1_telemetry(
            wt_load, bs_load, compute_table, storage_table
        )
        return wt_load, bs_load, compute_table, storage_table

    def _record_pass1_telemetry(
        self, wt_load, bs_load, compute_table, storage_table
    ) -> None:
        """Pass-1 counters/gauges, recorded once after the shard merge,
        so the metrics are the same for any shard geometry."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        dc = self.fleet.config.dc_id
        telemetry.counter("sim.pass1.runs", dc=dc).inc()
        telemetry.counter(
            "sim.pass1.rows", dc=dc, table="compute"
        ).inc(len(compute_table))
        telemetry.counter(
            "sim.pass1.rows", dc=dc, table="storage"
        ).inc(len(storage_table))
        telemetry.gauge("sim.pass1.wt_grid_cells", dc=dc).set_max(
            int(wt_load.size)
        )
        telemetry.gauge("sim.pass1.bs_grid_cells", dc=dc).set_max(
            int(bs_load.size)
        )

    def _pass1_fast(
        self,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]" = None,
        stacked: "Optional[tuple]" = None,
        t0: int = 0,
    ) -> "tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray], Dict[str, np.ndarray]]":
        """Vectorized pass 1 over one time shard's (entity, second) matrices.

        Returns the WT and BS load-grid windows and the compute and
        storage metric columns.

        :meth:`run_pass1` calls this once per shard: ``stacked``
        supplies ``(read_b, write_b, read_i, write_i, qp_rw, qp_ww,
        seg_rw, seg_ww)`` with series covering seconds ``[t0, t0 + L)``
        (or ``adjusted`` supplies window-sliced fault matrices), and
        ``t0`` offsets the emitted row timestamps back into run
        coordinates.  Every per-cell value is elementwise in time, so a
        window's outputs are bitwise equal to the same columns of a
        whole-horizon pass.  Storage rows carry an extra ``entity_id``
        column (the segment, or the replica under redundancy) that the
        merge sorts by and drops.

        Entities are processed in global id order in bounded-size chunks;
        within a chunk every per-second value is computed with the exact
        same elementwise operations (and ``np.add.at`` applies additions in
        index order), so load grids and metric rows are bit-identical to
        the scalar oracle ``reference_pass1`` (``tests/oracles/pass1.py``)
        when ``traffic`` is in fleet VD order.

        The scatter-add onto a load grid uses a flat-index ``np.bincount``
        when the whole entity range fits in one chunk (the common case):
        ``bincount`` accumulates its weights sequentially in input order,
        exactly like the oracle's ``+=`` per entity, so the grids stay
        bitwise equal while running several times faster than
        ``np.add.at``.  Multi-chunk runs (huge fleets) fall back to
        ``np.add.at`` per chunk, which updates the accumulator element by
        element in index order and is therefore exact across chunks too.

        The kernels are *fused*: per-chunk temporaries (the four gathered
        and scaled series, their sum, the record masks, the flat scatter
        indexes) are materialized once into arena-reused buffers
        (:class:`repro.engine.arena.Arena`) instead of being reallocated
        per chunk/shard.  Every buffer is fully written by the same
        elementwise operations the unfused code ran (``np.take`` +
        in-place ``multiply``/``add``/``greater_equal`` with ``out=``),
        so values — and digests — are bit-identical; only the allocator
        traffic changes.  Series gathered from a float32 raw store keep
        float32 through the elementwise stage (results deterministic,
        digests re-pinned); the load grids and metric tables accumulate
        in float64 as always.
        """
        fleet = self.fleet
        cfg = self.config
        dc = fleet.config.dc_id
        bs_per_node = fleet.config.block_servers_per_node
        min_bytes = cfg.min_record_bytes
        min_iops = cfg.min_record_iops
        ent = self._entity_arrays()

        if adjusted is None:
            (
                read_b, write_b, read_i, write_i,
                qp_rw, qp_ww, seg_rw, seg_ww,
            ) = stacked
            t = int(read_b.shape[1])
        else:
            t = int(adjusted.epoch_index.size)
        ep_idx = adjusted.epoch_index if adjusted is not None else None

        wt_load = np.zeros((fleet.num_wts, t))
        bs_load = np.zeros((fleet.config.num_block_servers, t))
        compute_buf = _ColumnBuffer(
            ComputeMetricTable.INT_FIELDS, ComputeMetricTable.FLOAT_FIELDS
        )
        storage_buf = _ColumnBuffer(
            StorageMetricTable.INT_FIELDS + ("entity_id",),
            StorageMetricTable.FLOAT_FIELDS,
        )
        num_qps = len(fleet.queue_pairs)
        num_segs = len(fleet.segments)
        chunk = max(64, _FAST_PASS_CHUNK_CELLS // max(1, t))
        arange_t = np.arange(t)
        arena = self._pass1_arena
        # Storage-entity view: without redundancy these alias the segment
        # arrays exactly (so the legacy path is byte-identical); with
        # redundancy the entities are the flattened replicas and the
        # emitted segment_id column maps each replica back to its segment.
        exp = self._expansion if self._redundancy is not None else None
        if exp is None:
            s_num = num_segs
            s_vd, s_vm, s_user = ent.seg_vd, ent.seg_vm, ent.seg_user
            s_bs = seg_to_bs
            s_seg = None
            if adjusted is None:
                s_rw, s_ww = seg_rw, seg_ww
        else:
            s_num = exp.num_replicas
            s_vd, s_vm, s_user = exp.rep_vd, exp.rep_vm, exp.rep_user
            s_bs = exp.rep_bs
            s_seg = exp.rep_seg
            if adjusted is None:
                s_rw, s_ww = exp.rep_rw, exp.rep_ww
        # Per-entity storage node, computed once instead of per metric row.
        seg_to_node = s_bs // bs_per_node

        def scatter_add(
            load: np.ndarray,
            targets: np.ndarray,
            bw: np.ndarray,
            single_chunk: bool,
        ) -> None:
            if single_chunk:
                flat = arena.take("pass1.flat", bw.shape, np.int64)
                np.multiply(targets[:, None], t, out=flat)
                flat += arange_t
                load += np.bincount(
                    flat.ravel(), weights=bw.ravel(), minlength=load.size
                ).reshape(load.shape)
            else:
                np.add.at(load, targets, bw)

        def gather_scaled(
            series: "tuple[np.ndarray, ...]",
            rows: np.ndarray,
            rw: np.ndarray,
            ww: np.ndarray,
        ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
            """Fused ``series[rows] * weight`` into arena-backed buffers.

            Same elementwise gather + in-place scale the unfused code
            ran (so every value is bit-identical); the four temporaries
            live in reused arena slots instead of fresh allocations, and
            ``np.take`` reads straight out of memmapped raw shards
            without an intermediate copy.
            """
            read_b, write_b, read_i, write_i = series
            shape = (rows.size, read_b.shape[1])
            sdtype = read_b.dtype
            rb = arena.take("pass1.rb", shape, sdtype)
            wb = arena.take("pass1.wb", shape, sdtype)
            ri = arena.take("pass1.ri", shape, sdtype)
            wi = arena.take("pass1.wi", shape, sdtype)
            np.take(read_b, rows, axis=0, out=rb)
            np.take(write_b, rows, axis=0, out=wb)
            np.take(read_i, rows, axis=0, out=ri)
            np.take(write_i, rows, axis=0, out=wi)
            np.multiply(rb, rw, out=rb)
            np.multiply(wb, ww, out=wb)
            np.multiply(ri, rw, out=ri)
            np.multiply(wi, ww, out=wi)
            return rb, wb, ri, wi

        def record_mask_fused(
            bw: np.ndarray, ri: np.ndarray, wi: np.ndarray
        ) -> np.ndarray:
            # The oracle's record mask over arena buffers: the same two
            # comparisons and logical-or, so the mask is bit-identical.
            mask = arena.take("pass1.mask", bw.shape, np.bool_)
            np.greater_equal(bw, min_bytes, out=mask)
            iops = arena.take("pass1.iops", bw.shape, ri.dtype)
            np.add(ri, wi, out=iops)
            iops_mask = arena.take("pass1.iops_mask", bw.shape, np.bool_)
            np.greater_equal(iops, min_iops, out=iops_mask)
            np.logical_or(mask, iops_mask, out=mask)
            return mask

        for start in range(0, num_qps, chunk):
            stop = min(start + chunk, num_qps)
            if adjusted is None:
                rb, wb, ri, wi = gather_scaled(
                    (read_b, write_b, read_i, write_i),
                    ent.qp_vd[start:stop],
                    qp_rw[start:stop, None],
                    qp_ww[start:stop, None],
                )
            else:
                rb = adjusted.qp_rb[start:stop]
                wb = adjusted.qp_wb[start:stop]
                ri = adjusted.qp_ri[start:stop]
                wi = adjusted.qp_wi[start:stop]
            bw = arena.take("pass1.bw", rb.shape, rb.dtype)
            np.add(rb, wb, out=bw)
            scatter_add(
                wt_load, qp_to_wt[start:stop], bw, num_qps <= chunk
            )
            mask = record_mask_fused(bw, ri, wi)
            e, ts = np.nonzero(mask)
            if not e.size:
                continue
            g = e + start  # global qp ids
            # rb[mask] scans in C order, exactly the (e, ts) row order.
            compute_buf.append(
                timestamp=ts + t0 if t0 else ts,
                cluster_id=np.full(g.size, dc),
                compute_node_id=ent.qp_node[g],
                user_id=ent.qp_user[g],
                vm_id=ent.qp_vm[g],
                vd_id=ent.qp_vd[g],
                wt_id=qp_to_wt[g],
                qp_id=g,
                read_bytes=rb[mask],
                write_bytes=wb[mask],
                read_iops=ri[mask],
                write_iops=wi[mask],
            )

        for start in range(0, s_num, chunk):
            stop = min(start + chunk, s_num)
            if adjusted is None:
                rb, wb, ri, wi = gather_scaled(
                    (read_b, write_b, read_i, write_i),
                    s_vd[start:stop],
                    s_rw[start:stop, None],
                    s_ww[start:stop, None],
                )
            else:
                rb = adjusted.seg_rb[start:stop]
                wb = adjusted.seg_wb[start:stop]
                ri = adjusted.seg_ri[start:stop]
                wi = adjusted.seg_wi[start:stop]
            bw = arena.take("pass1.bw", rb.shape, rb.dtype)
            np.add(rb, wb, out=bw)
            if adjusted is None:
                scatter_add(
                    bs_load, s_bs[start:stop], bw, s_num <= chunk
                )
            else:
                # Redirects make the target BS epoch-dependent: scatter with
                # a per-(segment, second) target grid.  ``np.add.at``
                # iterates in C (entity-major, second-ascending) order —
                # the exact order the oracle's per-entity adds use.
                targets = adjusted.seg_bs_ep[start:stop][:, ep_idx]
                np.add.at(
                    bs_load,
                    (targets, np.broadcast_to(arange_t, targets.shape)),
                    bw,
                )
            mask = record_mask_fused(bw, ri, wi)
            e, ts = np.nonzero(mask)
            if not e.size:
                continue
            g = e + start  # global storage-entity ids (segments or replicas)
            if adjusted is None:
                bs_rows = s_bs[g]
                node_rows = seg_to_node[g]
            else:
                bs_rows = adjusted.seg_bs_ep[g, ep_idx[ts]]
                node_rows = bs_rows // bs_per_node
            storage_buf.append(
                timestamp=ts + t0 if t0 else ts,
                cluster_id=np.full(g.size, dc),
                storage_node_id=node_rows,
                block_server_id=bs_rows,
                user_id=s_user[g],
                vm_id=s_vm[g],
                vd_id=s_vd[g],
                segment_id=g if s_seg is None else s_seg[g],
                entity_id=g,
                read_bytes=rb[mask],
                write_bytes=wb[mask],
                read_iops=ri[mask],
                write_iops=wi[mask],
            )
        return (
            wt_load, bs_load,
            compute_buf.concatenated(), storage_buf.concatenated(),
        )

    # -- the full run --------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        traffic: "Optional[Sequence[VdTraffic] | TrafficSource]" = None,
    ) -> SimulationResult:
        """Execute the simulation and build all three datasets.

        The one code path for every run: bindings and redundancy, pass 1
        per time shard with a merge (:meth:`run_pass1`), then
        pass 2 per VD chunk.  Without ``traffic`` the offered load is
        generated in memory and the run is one shard ``[0, T)``.  A
        streamed source (:meth:`repro.engine.StreamingSimulator.spill`)
        streams the same body from its shard store, shard by shard and
        batch by batch.

        ``workers > 1`` fans pass 2 out over a process pool; outputs are
        identical for any worker count and any shard geometry.

        ``traffic`` may also reuse the offered load of an earlier run of
        the same fleet and horizon (a list or a streamed view) instead
        of generating it.  Redundancy, read policy and fault plan do not
        enter traffic generation, the RNG streams are label-keyed, and
        no pass reads state the run could have changed, so the result is
        identical to one that generates its own traffic.
        """
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        fleet = self.fleet
        cfg = self.config
        t = cfg.duration_seconds
        telemetry = get_telemetry()
        dc = fleet.config.dc_id

        hypervisors = HypervisorSet(fleet)
        storage = StorageCluster(fleet, redundancy=self._redundancy)
        if traffic is None:
            generator = WorkloadGenerator(
                fleet, t, self._rngs, diurnal_amplitude=cfg.diurnal_amplitude
            )
            with telemetry.span("sim.workload", dc=dc, vds=len(fleet.vds)):
                traffic = generator.generate_all()
        source = self._source(traffic)
        self._check_traffic(source)

        qp_to_wt, seg_to_bs = self.bindings(hypervisors, storage)
        if self._redundancy is not None:
            self.prepare_redundancy(
                source, seg_to_bs, table=storage.placement.table_array()
            )

        adjusted = self.fault_adjusted_inputs(source, qp_to_wt, seg_to_bs)
        wt_load, bs_load, compute_table, storage_table = self.run_pass1(
            source, qp_to_wt, seg_to_bs, adjusted=adjusted
        )
        metrics = MetricDataset(
            compute=compute_table, storage=storage_table, duration_seconds=t
        )

        with telemetry.span("sim.pass2", dc=dc, workers=workers):
            traces, trace_fault_stats = self._run_pass2(
                source, qp_to_wt, seg_to_bs, wt_load, bs_load, workers
            )

        specs = SpecDataset(
            vd_specs=[fleet.vd_spec(vd.vd_id) for vd in fleet.vds],
            vm_specs=[fleet.vm_spec(vm.vm_id) for vm in fleet.vms],
        )

        faults = self._finalize_faults(
            hypervisors, storage, adjusted, traces, trace_fault_stats
        )
        if source.streamed and telemetry.enabled:
            telemetry.gauge("engine.peak_rss_bytes", dc=dc).set_max(
                peak_rss_bytes()
            )

        return SimulationResult(
            fleet=fleet,
            config=cfg,
            metrics=metrics,
            traces=traces,
            specs=specs,
            hypervisors=hypervisors,
            storage=storage,
            traffic=traffic,
            wt_load_bps=wt_load,
            bs_load_bps=bs_load,
            faults=faults,
        )

    def _check_traffic(self, source: TrafficSource) -> None:
        """Reject traffic that cannot belong to this fleet/horizon."""
        num_vds = len(self.fleet.vds)
        if len(source) != num_vds:
            raise ConfigError(
                f"traffic covers {len(source)} VDs, the fleet has {num_vds}"
            )
        horizon = self.config.duration_seconds
        if source.duration_seconds != horizon:
            raise ConfigError(
                f"traffic spans {source.duration_seconds} s, the run "
                f"{horizon} s"
            )

    def _finalize_faults(
        self,
        hypervisors: HypervisorSet,
        storage: StorageCluster,
        adjusted: "Optional[FaultAdjustedInputs]",
        traces: TraceDataset,
        trace_fault_stats: "Optional[Dict[str, int]]",
    ) -> "Optional[FaultOutcome]":
        """Replay crash windows onto the stateful objects and attribute
        failures; None for fault-free runs."""
        if self._timeline is None:
            return None
        telemetry = get_telemetry()
        with telemetry.span(
            "sim.faults.replay",
            dc=self.fleet.config.dc_id,
            events=len(self._timeline.events),
        ):
            self._replay_failures(hypervisors, storage)
        faults = FaultOutcome(
            plan=self._timeline.plan,
            accounting=(
                adjusted.accounting
                if adjusted is not None
                else FaultAccounting()
            ),
            trace_stats=(
                trace_fault_stats
                if trace_fault_stats is not None
                else empty_trace_stats()
            ),
            windows=compute_window_stats(self._timeline.plan, traces),
        )
        self._record_fault_telemetry(telemetry, faults)
        return faults

    def _replay_failures(
        self, hypervisors: HypervisorSet, storage: StorageCluster
    ) -> None:
        """Replay the plan's crash/stall windows onto the stateful objects.

        Chronological, with recoveries applied before failures at the
        same second (windows are half-open).  Leaves ``storage`` /
        ``hypervisors`` reflecting the end-of-horizon state, with every
        transition recorded in their failure/stall logs.
        """
        timeline = self._timeline
        if timeline is None:
            return
        cfg = self.fleet.config
        t = self.config.duration_seconds
        actions: "List[tuple[int, int, str, int]]" = []
        for event in timeline.events:
            if event.kind is FaultKind.BS_CRASH:
                targets = [int(event.target)]
            elif event.kind is FaultKind.CS_CRASH:
                per = cfg.block_servers_per_node
                targets = list(
                    range(event.target * per, (event.target + 1) * per)
                )
            elif event.kind is FaultKind.QP_STALL:
                actions.append((event.start_s, 1, "stall", int(event.target)))
                if event.end_s < t:
                    actions.append(
                        (event.end_s, 0, "unstall", int(event.target))
                    )
                continue
            else:
                continue
            for bs in targets:
                actions.append((event.start_s, 1, "fail", bs))
                if event.end_s < t:
                    actions.append((event.end_s, 0, "recover", bs))
        for second, _, action, target in sorted(actions):
            if action == "fail":
                storage.fail_block_server(target, timestamp=second)
            elif action == "recover":
                storage.recover_block_server(target, timestamp=second)
            elif action == "stall":
                hypervisors.stall_qp(target, timestamp=second)
            else:
                hypervisors.unstall_qp(target, timestamp=second)

    def _record_fault_telemetry(
        self, telemetry, faults: "FaultOutcome"
    ) -> None:
        """Fault counters (integer-valued, so merges stay deterministic)."""
        if not telemetry.enabled:
            return
        dc = self.fleet.config.dc_id
        timeline = self._timeline
        for event in timeline.events:
            telemetry.counter(
                "sim.faults.events", dc=dc, kind=event.kind.value
            ).inc()
        acct = faults.accounting
        for name, value in (
            ("redirected_ios", acct.redirected_ios),
            ("retried_ios", acct.retried_ios),
            ("queued_ios", acct.queued_ios),
            ("dropped_storage_ios", acct.dropped_storage_ios),
            ("stalled_ios", acct.stalled_ios),
            ("dropped_compute_ios", acct.dropped_compute_ios),
        ):
            telemetry.counter(
                "sim.faults.mass", dc=dc, metric=name
            ).inc(int(round(value)))
        for key, value in faults.trace_stats.items():
            telemetry.counter(
                "sim.faults.traces", dc=dc, metric=key
            ).inc(int(value))

    # -- pass 2: sampled traces ----------------------------------------------

    def _trace_replica_failover(
        self,
        exp: "ReplicaExpansion",
        timeline: FaultTimeline,
        seg_ids: np.ndarray,
        bs_ids: np.ndarray,
        seconds: np.ndarray,
        is_write: np.ndarray,
    ) -> "tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Dict[str, int]]":
        """Replica-aware trace fault handling (replaces redirect/queue).

        A read whose drawn copy is down fails over to the first
        surviving copy of its segment (one retry hop in the frontend);
        if every copy is down it is dropped.  A write whose primary is
        down is dropped (deferred re-replication).  Deterministic — no
        RNG draws — so trace identity off the crash windows is exact.
        """
        stats = empty_trace_stats()
        ep_all = timeline.epoch_index[seconds]
        down = timeline.bs_down_ep[bs_ids, ep_all]
        if not down.any():
            return bs_ids, None, None, stats
        bs_ids = bs_ids.copy()
        keep = np.ones(bs_ids.size, dtype=bool)
        retries = np.zeros(bs_ids.size, dtype=np.int64)
        idx = np.nonzero(down)[0]
        rows = exp.table[seg_ids[idx]]                       # (n_down, W)
        alive = ~timeline.bs_down_ep[rows, ep_all[idx][:, None]]
        ok = alive.any(axis=1) & ~is_write[idx]
        targets = rows[np.arange(idx.size), np.argmax(alive, axis=1)]
        bs_ids[idx[ok]] = targets[ok]
        retries[idx[ok]] = 1
        keep[idx[~ok]] = False
        n_ok = int(ok.sum())
        stats["redirected_ios"] = n_ok
        stats["retries"] = n_ok
        stats["dropped_ios"] = int(idx.size - n_ok)
        return (
            bs_ids,
            None if bool(keep.all()) else keep,
            retries if n_ok else None,
            stats,
        )

    def _trace_columns_for_vd(
        self,
        vd_traffic: VdTraffic,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        wt_load: np.ndarray,
        bs_load: np.ndarray,
    ) -> "Optional[Dict[str, np.ndarray]]":
        """Trace columns (sans trace_id) for one VD; None if nothing sampled.

        Every random draw comes from RNG streams keyed by this VD's id, so
        the result does not depend on which process (or in which order)
        generates it.
        """
        fleet = self.fleet
        cfg = self.config
        t = cfg.duration_seconds
        dc = fleet.config.dc_id
        bs_per_node = fleet.config.block_servers_per_node
        segment_bytes = fleet.config.segment_bytes

        vd = fleet.vds[vd_traffic.vd_id]
        vm = fleet.vms[vd.vm_id]
        rng = self._rngs.get(f"trace/vd{vd.vd_id}")
        sampler = TraceSampler(
            cfg.trace_sampling_rate,
            self._rngs.get(f"trace-sampler/vd{vd.vd_id}"),
        )

        read_counts = sampler.sample_counts(
            np.round(vd_traffic.read_iops).astype(np.int64)
        )
        write_counts = sampler.sample_counts(
            np.round(vd_traffic.write_iops).astype(np.int64)
        )
        n_read = int(read_counts.sum())
        n_write = int(write_counts.sum())
        n = n_read + n_write
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Accumulated from array totals (never per element); all values
            # are integers, so per-worker merges are exact in any order.
            telemetry.counter("sim.traces.ios", dc=dc, op="read").inc(n_read)
            telemetry.counter("sim.traces.ios", dc=dc, op="write").inc(n_write)
            telemetry.histogram("sim.traces.ios_per_vd", dc=dc).observe(n)
        if n == 0:
            return None

        seconds = np.concatenate(
            [
                np.repeat(np.arange(t), read_counts),
                np.repeat(np.arange(t), write_counts),
            ]
        )
        is_write = np.zeros(n, dtype=bool)
        is_write[n_read:] = True
        timestamps = seconds + rng.random(n)

        mean_size = np.where(
            is_write,
            vd_traffic.mean_write_size_bytes,
            vd_traffic.mean_read_size_bytes,
        )
        sizes = np.clip(
            mean_size * rng.lognormal(0.0, 0.35, size=n),
            _MIN_IO_BYTES,
            _MAX_IO_BYTES,
        ).astype(np.int64)

        hot_fraction = vd_traffic.hot_fraction_series[seconds]
        # Draw from a copy: the model's cursors advance as it draws, and
        # the traffic must stay reusable by later runs.
        offsets = copy.copy(vd_traffic.lba_model).draw_offsets(
            rng, is_write, hot_fraction
        )

        qp_read_p = _normalized_probabilities(
            vd_traffic.qp_read_weights, f"vd {vd.vd_id} qp read weights"
        )
        qp_write_p = _normalized_probabilities(
            vd_traffic.qp_write_weights, f"vd {vd.vd_id} qp write weights"
        )
        qp_index = np.where(
            is_write,
            rng.choice(vd.num_queue_pairs, size=n, p=qp_write_p),
            rng.choice(vd.num_queue_pairs, size=n, p=qp_read_p),
        )

        # ---- fault application (separate label-keyed stream) ---------------
        # All base-stream draws above are unconditional, so a no-fault plan
        # reproduces the failure-free trace dataset bit for bit.
        timeline = self._timeline
        fault_stats: Optional[Dict[str, int]] = None
        keep: Optional[np.ndarray] = None
        retries: Optional[np.ndarray] = None
        frac = timestamps - seconds
        if timeline is not None and timeline.has_any_effect:
            fault_stats = empty_trace_stats()
            fault_stats["total_ios"] = n
            frng = self._rngs.get(f"fault/vd{vd.vd_id}")
            seconds, qp_index, keep, cstats = timeline.trace_compute_faults(
                vd, vd_traffic, frng, seconds, qp_index, is_write
            )
            merge_trace_stats(fault_stats, cstats)

        qp_ids = vd.first_qp_id + qp_index
        wt_ids = qp_to_wt[qp_ids]

        seg_index = np.minimum(offsets // segment_bytes, vd.num_segments - 1)
        seg_ids = vd.first_segment_id + seg_index
        exp = self._expansion if self._redundancy is not None else None
        if exp is None:
            bs_ids = seg_to_bs[seg_ids]
        else:
            # Draw each read's serving copy from the policy's per-segment
            # weights (separate label-keyed stream, so the base trace
            # draws above stay untouched); writes pin to the primary.
            rrng = self._rngs.get(f"redundancy/vd{vd.vd_id}")
            u = rrng.random(n)
            cum = exp.read_cum[seg_ids]
            slots = np.minimum(
                (u[:, None] >= cum).sum(axis=1), exp.width - 1
            )
            slots[is_write] = 0
            bs_ids = exp.table[seg_ids, slots]

        if timeline is not None and timeline.has_any_effect:
            if exp is None:
                bs_ids, seconds, skeep, retries, sstats = (
                    timeline.trace_storage_faults(bs_ids, seconds, alive=keep)
                )
            else:
                # Redundancy: reads on a downed copy fail over to the
                # first surviving copy instead of redirecting/queueing.
                bs_ids, skeep, retries, sstats = (
                    self._trace_replica_failover(
                        exp, timeline, seg_ids, bs_ids, seconds, is_write
                    )
                )
            merge_trace_stats(fault_stats, sstats)
            if skeep is not None:
                keep = skeep if keep is None else keep & skeep
            timestamps = seconds + frac

        wt_u = wt_load[wt_ids, seconds] / cfg.wt_capacity_bps
        bs_u = bs_load[bs_ids, seconds] / cfg.bs_capacity_bps
        latencies = self.latency_model.sample(
            rng, is_write, sizes, wt_u, bs_u
        )

        if timeline is not None and timeline.has_degrade:
            degraded = np.zeros(n, dtype=bool)
            for component in LatencyModel.COMPONENTS:
                series = timeline.multiplier_series(component)
                if series is None:
                    continue
                multipliers = series[seconds]
                latencies[component] = latencies[component] * multipliers
                degraded |= multipliers > 1.0
            if keep is not None:
                degraded &= keep  # dropped IOs are not "degraded"
            fault_stats["degraded_ios"] = int(degraded.sum())
        if retries is not None:
            # Redirect hops happen in the frontend's BlockClient: each hop
            # costs one backoff before the IO reaches the replica BS.
            latencies["frontend"] = (
                latencies["frontend"]
                + retries * timeline.plan.retry_backoff_us
            )

        columns = dict(
            op=is_write.astype(np.int64),
            size_bytes=sizes,
            offset_bytes=offsets,
            user_id=np.full(n, vd.user_id),
            vm_id=np.full(n, vd.vm_id),
            vd_id=np.full(n, vd.vd_id),
            qp_id=qp_ids,
            wt_id=wt_ids,
            compute_node_id=np.full(n, vm.compute_node_id),
            segment_id=seg_ids,
            block_server_id=bs_ids,
            storage_node_id=bs_ids // bs_per_node,
            timestamp=timestamps,
            lat_compute_us=latencies["compute"],
            lat_frontend_us=latencies["frontend"],
            lat_block_server_us=latencies["block_server"],
            lat_backend_us=latencies["backend"],
            lat_chunk_server_us=latencies["chunk_server"],
        )
        if keep is not None and not keep.all():
            # Dropped IOs leave the trace dataset; they are counted in the
            # fault stats (never both recorded and dropped).
            columns = {name: values[keep] for name, values in columns.items()}
        if fault_stats is not None:
            columns["_fault"] = fault_stats  # popped by _collect_trace_columns
        return columns

    def _run_pass2(
        self,
        source: TrafficSource,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        wt_load: np.ndarray,
        bs_load: np.ndarray,
        workers: int,
    ) -> "tuple[TraceDataset, Optional[Dict[str, int]]]":
        """Sampled traces over the source's VD chunks, in fleet order."""
        telemetry = get_telemetry()
        dc = self.fleet.config.dc_id
        chunks = source.pass2_chunks(workers)
        if workers == 1 or len(chunks) < 2:
            def columns_in_order():
                for batch, chunk in enumerate(chunks):
                    with _engine_span(
                        source, "engine.pass2.batch", dc=dc, batch=batch
                    ):
                        for vd_traffic in chunk:
                            yield self._trace_columns_for_vd(
                                vd_traffic, qp_to_wt, seg_to_bs,
                                wt_load, bs_load,
                            )
            return self._collect_trace_columns(columns_in_order())

        payloads = [
            (
                self, chunk, qp_to_wt, seg_to_bs, wt_load, bs_load,
                telemetry.enabled,
            )
            for chunk in chunks
        ]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads))
        ) as pool:
            chunk_results = list(pool.map(_trace_chunk_worker, payloads))
        # Merge worker telemetry in chunk (VD) order: counters and
        # histogram buckets are integer-valued, so the merged metrics
        # are byte-identical to the sequential run's.
        for _, snapshot in chunk_results:
            telemetry.merge_snapshot(snapshot)
        return self._collect_trace_columns(
            columns for chunk, _ in chunk_results for columns in chunk
        )

    def _collect_trace_columns(
        self, columns_in_order
    ) -> "tuple[TraceDataset, Optional[Dict[str, int]]]":
        """Assemble per-VD trace columns (in fleet VD order) into a dataset.

        Assigns the global ``trace_id`` sequence, folds per-VD fault stats,
        and records the sampled-trace counter.  Columns arrive in fleet
        order from any chunking, so the dataset is identical however the
        VDs were partitioned.
        """
        cfg = self.config
        telemetry = get_telemetry()
        buffer = _ColumnBuffer(
            TraceDataset.INT_FIELDS, TraceDataset.FLOAT_FIELDS
        )
        next_trace_id = 0
        fault_stats: Optional[Dict[str, int]] = None
        for columns in columns_in_order:
            if columns is None:
                continue
            per_vd_stats = columns.pop("_fault", None)
            if per_vd_stats is not None:
                if fault_stats is None:
                    fault_stats = empty_trace_stats()
                merge_trace_stats(fault_stats, per_vd_stats)
            n = columns["op"].size
            if n:
                buffer.append(
                    trace_id=np.arange(next_trace_id, next_trace_id + n),
                    **columns,
                )
            next_trace_id += n

        if telemetry.enabled:
            telemetry.counter(
                "sim.traces.sampled", dc=self.fleet.config.dc_id
            ).inc(next_trace_id)
        dataset = TraceDataset(
            sampling_rate=cfg.trace_sampling_rate, **buffer.concatenated()
        )
        return dataset, fault_stats
