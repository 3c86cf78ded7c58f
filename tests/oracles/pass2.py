"""Reference pass 2 (sampled traces), kept as a test oracle.

This is the per-VD form of pass 2 that
:meth:`repro.cluster.simulator.EBSSimulator.run` replaced with a draw
step (per VD, :meth:`~repro.cluster.simulator.EBSSimulator._draw`) and a
resolve step vectorized over a DC or VD batch
(:meth:`~repro.cluster.simulator.EBSSimulator._resolve`).  Here every
VD draws from its streams and is resolved on its own, in fleet order,
and the columns are concatenated with one running ``trace_id``.  The
vectorized pass must match it bit for bit, fault statistics included
(``tests/cluster/test_pass2_oracle.py``).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.latency import LatencyModel
from repro.cluster.simulator import (
    _MAX_IO_BYTES,
    _MIN_IO_BYTES,
    EBSSimulator,
    _ColumnBuffer,
    _normalized_probabilities,
)
from repro.faults.outcome import empty_trace_stats, merge_trace_stats
from repro.trace.dataset import TraceDataset
from repro.trace.sampling import TraceSampler
from repro.util.units import MiB
from repro.workload.generator import VdTraffic


def reference_latencies(
    model: LatencyModel,
    rng: np.random.Generator,
    is_write: np.ndarray,
    size_bytes: np.ndarray,
    wt_u: np.ndarray,
    bs_u: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The five component latencies, each jitter drawn as it is used.

    The one-pass form that :meth:`LatencyModel.draw` and
    :meth:`LatencyModel.combine` split in two.
    """
    cfg = model.config
    n = is_write.size
    size_mib = np.asarray(size_bytes, dtype=float) / MiB
    transfer_net = size_mib * cfg.network_us_per_mib
    transfer_media = size_mib * cfg.media_us_per_mib
    compute = cfg.compute_base_us * model._queueing(wt_u) * model._jitter(rng, n)
    frontend = (cfg.frontend_base_us + transfer_net) * model._jitter(rng, n)
    block_server = (
        cfg.block_server_base_us * model._queueing(bs_u) * model._jitter(rng, n)
    )
    backend_cost = cfg.backend_base_us + transfer_net
    backend = np.where(
        is_write, backend_cost * cfg.write_replication_factor, backend_cost
    ) * model._jitter(rng, n)
    chunk_base = np.where(
        is_write,
        cfg.chunk_server_write_base_us,
        cfg.chunk_server_read_base_us + transfer_media,
    )
    chunk_server = chunk_base * model._jitter(rng, n)
    return {
        "compute": compute,
        "frontend": frontend,
        "block_server": block_server,
        "backend": backend,
        "chunk_server": chunk_server,
    }


def reference_trace_columns(
    simulator: EBSSimulator,
    vd_traffic: VdTraffic,
    qp_to_wt: np.ndarray,
    seg_to_bs: np.ndarray,
    wt_load: np.ndarray,
    bs_load: np.ndarray,
) -> "Optional[Dict[str, np.ndarray]]":
    """Trace columns (sans trace_id) for one VD; None if nothing sampled.

    The per-VD pass 2: it draws from this VD's label-keyed streams and
    resolves the draws against the bindings, loads, redundancy and
    fault plan in one go, VD by VD.
    """
    fleet = simulator.fleet
    cfg = simulator.config
    t = cfg.duration_seconds
    bs_per_node = fleet.config.block_servers_per_node
    segment_bytes = fleet.config.segment_bytes

    vd = fleet.vds[vd_traffic.vd_id]
    vm = fleet.vms[vd.vm_id]
    rng = simulator._rngs.get(f"trace/vd{vd.vd_id}")
    sampler = TraceSampler(
        cfg.trace_sampling_rate,
        simulator._rngs.get(f"trace-sampler/vd{vd.vd_id}"),
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
    timeline = simulator._timeline
    fault_stats: Optional[Dict[str, int]] = None
    keep: Optional[np.ndarray] = None
    retries: Optional[np.ndarray] = None
    frac = timestamps - seconds
    if timeline is not None and timeline.has_any_effect:
        fault_stats = empty_trace_stats()
        fault_stats["total_ios"] = n
        frng = simulator._rngs.get(f"fault/vd{vd.vd_id}")
        seconds, qp_index, keep, cstats = timeline.trace_compute_faults(
            vd, vd_traffic, frng, seconds, qp_index, is_write
        )
        merge_trace_stats(fault_stats, cstats)

    qp_ids = vd.first_qp_id + qp_index
    wt_ids = qp_to_wt[qp_ids]

    seg_index = np.minimum(offsets // segment_bytes, vd.num_segments - 1)
    seg_ids = vd.first_segment_id + seg_index
    exp = simulator._expansion if simulator._redundancy is not None else None
    if exp is None:
        bs_ids = seg_to_bs[seg_ids]
    else:
        # Draw each read's serving copy from the policy's per-segment
        # weights (separate label-keyed stream, so the base trace
        # draws above stay untouched); writes pin to the primary.
        rrng = simulator._rngs.get(f"redundancy/vd{vd.vd_id}")
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
                simulator._trace_replica_failover(
                    exp, timeline, seg_ids, bs_ids, seconds, is_write
                )
            )
        merge_trace_stats(fault_stats, sstats)
        if skeep is not None:
            keep = skeep if keep is None else keep & skeep
        timestamps = seconds + frac

    wt_u = wt_load[wt_ids, seconds] / cfg.wt_capacity_bps
    bs_u = bs_load[bs_ids, seconds] / cfg.bs_capacity_bps
    latencies = reference_latencies(
        simulator.latency_model, rng, is_write, sizes, wt_u, bs_u
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
        columns["_fault"] = fault_stats  # popped by reference_pass2
    return columns


def reference_pass2(
    simulator: EBSSimulator,
    traffic: Sequence[VdTraffic],
    qp_to_wt: np.ndarray,
    seg_to_bs: np.ndarray,
    wt_load: np.ndarray,
    bs_load: np.ndarray,
) -> "tuple[TraceDataset, Optional[Dict[str, int]]]":
    """The trace dataset and fault statistics, one VD at a time."""
    buffer = _ColumnBuffer(TraceDataset.INT_FIELDS, TraceDataset.FLOAT_FIELDS)
    next_trace_id = 0
    fault_stats: Optional[Dict[str, int]] = None
    for vd_traffic in traffic:
        columns = reference_trace_columns(
            simulator, vd_traffic, qp_to_wt, seg_to_bs, wt_load, bs_load
        )
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
    dataset = TraceDataset(
        sampling_rate=simulator.config.trace_sampling_rate,
        **buffer.concatenated(),
    )
    return dataset, fault_stats
