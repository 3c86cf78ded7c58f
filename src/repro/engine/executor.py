"""Spill a run's traffic to a shard store, so the run streams it.

Every simulation runs through :meth:`EBSSimulator.run`.  In memory it
runs a single time shard ``[0, T)`` over the stacked traffic matrices.
:class:`StreamingSimulator` is what takes the same run
out-of-core:

1. **Spill** (:meth:`StreamingSimulator.spill`) — workload generation
   proceeds in fleet-order VD batches
   (:meth:`WorkloadGenerator.iter_batches`); each batch's series are cut
   at epoch multiples and written to a :class:`ShardStore`, then dropped
   from RAM.  The per-entity weights and per-VD byte totals (small)
   accumulate batch by batch, through the same
   :func:`~repro.cluster.simulator.stack_weights` an in-memory run uses.
2. **Run** — ``simulator.run(traffic=engine.spill())`` hands the
   run a :class:`StreamedTraffic`.  Pass 1 then reloads one
   ``(num_vds, L)`` time shard at a time, the parts merge
   (:func:`repro.engine.merge.merge_shard_parts`), and pass 2 reloads one
   VD batch at a time.  Redundancy builds its replica
   expansion from the store's weights and totals.

Fault-plan runs with churn need whole-horizon matrices for
``timeline.adjust`` and therefore materialize the traffic inside
:meth:`EBSSimulator.fault_adjusted_inputs`.  That is the documented
memory trade-off; their pass 1 still runs shard by shard over
window-sliced :class:`FaultAdjustedInputs`.

The determinism contract: for a fixed seed, any ``chunk_epochs`` /
``vd_batch_size`` choice produces a result whose
:func:`repro.engine.digest.result_digest` — and whose ``sim.*`` /
``workload.*`` telemetry metrics — equal the in-memory run's.
"""

from __future__ import annotations

import tempfile
from typing import Optional

from repro.cluster.simulator import EBSSimulator, stack_weights
from repro.engine.plan import EPOCH_SECONDS, StreamPlan, plan_for
from repro.engine.shards import ShardStore, StreamedTraffic, purge_store
from repro.obs.runtime import get_telemetry
from repro.util.errors import ConfigError
from repro.workload.generator import WorkloadGenerator


class StreamingSimulator:
    """Spill one :class:`EBSSimulator`'s traffic to a shard store."""

    def __init__(
        self,
        simulator: EBSSimulator,
        chunk_epochs: int,
        shard_dir: "Optional[str]" = None,
        max_rss_mb: "Optional[int]" = None,
        epoch_seconds: int = EPOCH_SECONDS,
        vd_batch_size: "Optional[int]" = None,
    ):
        self._sim = simulator
        self.plan: StreamPlan = plan_for(
            duration_seconds=simulator.config.duration_seconds,
            num_vds=len(simulator.fleet.vds),
            chunk_epochs=chunk_epochs,
            epoch_seconds=epoch_seconds,
            max_rss_mb=max_rss_mb,
            vd_batch_size=vd_batch_size,
        )
        #: True when we created a temp dir and own its cleanup.
        self.owns_directory = shard_dir is None
        self._directory = (
            tempfile.mkdtemp(prefix="repro-shards-")
            if shard_dir is None
            else str(shard_dir)
        )
        self.store = ShardStore(self._directory, self.plan)

    def cleanup(self) -> None:
        """Delete the shard store if this run created a temp directory."""
        if self.owns_directory:
            purge_store(self._directory)

    def spill(self) -> StreamedTraffic:
        """Generate and spill every VD batch; return the store's view.

        Pass the view to :meth:`EBSSimulator.run` as ``traffic``: the
        run then streams from the store.
        """
        sim = self._sim
        fleet = sim.fleet
        cfg = sim.config
        telemetry = get_telemetry()
        dc = fleet.config.dc_id
        generator = WorkloadGenerator(
            fleet,
            cfg.duration_seconds,
            sim._rngs,
            diurnal_amplitude=cfg.diurnal_amplitude,
        )
        weights = None
        batch_index = 0
        with telemetry.span(
            "engine.spill",
            dc=dc,
            vds=len(fleet.vds),
            shards=self.plan.num_shards,
            batches=self.plan.num_batches,
        ):
            for start, batch in generator.iter_batches(
                self.plan.vd_batch_size
            ):
                if batch and batch[0].vd_id != start:
                    raise ConfigError(
                        "fleet VD ids are not contiguous fleet-order "
                        "indexes; the shard store's row order would be wrong"
                    )
                with telemetry.span(
                    "engine.spill.batch",
                    dc=dc,
                    batch=batch_index,
                    vds=len(batch),
                ):
                    self.store.spill_batch(batch_index, batch)
                weights = stack_weights(fleet, batch, out=weights)
                batch_index += 1
            if telemetry.enabled:
                telemetry.counter(
                    "engine.batches_spilled", dc=dc
                ).inc(batch_index)
            self.store.finalize(weights)
        return StreamedTraffic(self.store)
