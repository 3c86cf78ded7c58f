"""The on-disk shard store behind out-of-core execution.

Layout of one store directory::

    manifest.json                 # schema, plan geometry
    series_s0003_b0001.npy        # one (5, batch_vds, shard_len) block
    static_b0001.pkl              # per-VD weights / LBA model / sizes
    weights.npz                   # stacked weights + per-VD byte totals

Series are stored raw: one plain ``.npy`` per (shard, batch) holding a
single ``(5, batch_vds, shard_len)`` block.  Readers open it with
``np.load(..., mmap_mode="r")``: the kernel pages bytes in lazily, so
a reader holds only what it touches.  Series stay float64, so a store round-trips bitwise and run
digests are identical to the in-memory run's.

The per-VD static payload (weight vectors, the :class:`HotspotLbaModel`
with its draw-time state, mean IO sizes) is pickled once, at the same
lifecycle point an in-memory run reaches pass 2 with — which is what
makes a reloaded :class:`VdTraffic` indistinguishable from the original.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.simulator import TrafficSource
from repro.engine.arena import Arena
from repro.engine.plan import StreamPlan
from repro.util.errors import ConfigError
from repro.workload.generator import VdTraffic

#: Version 5 stores every series raw as float64, with the per-VD byte
#: totals in ``weights.npz``; stores of older versions are rejected,
#: not converted.
SHARD_SCHEMA_VERSION = 5

_SERIES_FIELDS = (
    "read_bytes", "write_bytes", "read_iops", "write_iops",
    "hot_fraction_series",
)
_STATIC_FIELDS = (
    "vd_id", "qp_read_weights", "qp_write_weights",
    "segment_read_weights", "segment_write_weights",
    "lba_model", "mean_read_size_bytes", "mean_write_size_bytes",
)
#: ``weights.npz`` keys, in :func:`repro.cluster.simulator.stack_weights`
#: order.
_WEIGHT_KEYS = ("qp_rw", "qp_ww", "seg_rw", "seg_ww", "vd_rt", "vd_wt")


class ShardStore:
    """Columnar spill/reload of per-VD traffic, cut by (shard, batch)."""

    def __init__(self, directory: "str | Path", plan: StreamPlan):
        self.directory = Path(directory)
        self.plan = plan

    # -- paths ---------------------------------------------------------------

    def _series_path(self, shard: int, batch: int) -> Path:
        return self.directory / f"series_s{shard:04d}_b{batch:04d}.npy"

    def _static_path(self, batch: int) -> Path:
        return self.directory / f"static_b{batch:04d}.pkl"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def weights_path(self) -> Path:
        return self.directory / "weights.npz"

    # -- writing -------------------------------------------------------------

    def spill_batch(self, batch: int, traffic: List[VdTraffic]) -> None:
        """Write one VD batch: time-sliced series + the static payload."""
        self.directory.mkdir(parents=True, exist_ok=True)
        v0, v1 = self.plan.batch_bounds(batch)
        if len(traffic) != v1 - v0:
            raise ConfigError(
                f"batch {batch} expects {v1 - v0} VDs, got {len(traffic)}"
            )
        for shard in range(self.plan.num_shards):
            t0, t1 = self.plan.shard_bounds(shard)
            block = np.empty(
                (len(_SERIES_FIELDS), len(traffic), t1 - t0)
            )
            for fi, field in enumerate(_SERIES_FIELDS):
                for vi, tr in enumerate(traffic):
                    block[fi, vi] = getattr(tr, field)[t0:t1]
            with open(self._series_path(shard, batch), "wb") as fh:
                np.save(fh, block)
        static = [
            {field: getattr(tr, field) for field in _STATIC_FIELDS}
            for tr in traffic
        ]
        with open(self._static_path(batch), "wb") as fh:
            pickle.dump(static, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def finalize(self, stacked_weights: Tuple[np.ndarray, ...]) -> None:
        """Write the weights and per-VD totals, then the manifest.

        ``stacked_weights`` is the six-array tuple of
        :func:`repro.cluster.simulator.stack_weights`.
        """
        with open(self.weights_path, "wb") as fh:
            np.savez(fh, **dict(zip(_WEIGHT_KEYS, stacked_weights)))
        plan = self.plan
        self.manifest_path.write_text(json.dumps({
            "schema_version": SHARD_SCHEMA_VERSION,
            "duration_seconds": plan.duration_seconds,
            "epoch_seconds": plan.epoch_seconds,
            "chunk_epochs": plan.chunk_epochs,
            "num_vds": plan.num_vds,
            "vd_batch_size": plan.vd_batch_size,
            "num_shards": plan.num_shards,
            "num_batches": plan.num_batches,
        }, indent=2) + "\n")

    # -- reading -------------------------------------------------------------

    @classmethod
    def open(cls, directory: "str | Path") -> "ShardStore":
        """Open a finalized store from its manifest (e.g. in a worker).

        Stores written with an older schema are scratch data from an earlier build: they are
        rejected with a message to delete them and re-run.
        """
        directory = Path(directory)
        try:
            manifest = json.loads((directory / "manifest.json").read_text())
        except FileNotFoundError:
            raise ConfigError(f"no shard store at {directory}")
        version = manifest.get("schema_version")
        if version != SHARD_SCHEMA_VERSION:
            raise ConfigError(
                f"shard store at {directory} has schema version {version}; "
                f"this build reads only version {SHARD_SCHEMA_VERSION}. "
                "Shard stores are scratch data: delete the store and re-run"
            )
        plan = StreamPlan(
            duration_seconds=manifest["duration_seconds"],
            epoch_seconds=manifest["epoch_seconds"],
            chunk_epochs=manifest["chunk_epochs"],
            num_vds=manifest["num_vds"],
            vd_batch_size=manifest["vd_batch_size"],
        )
        return cls(directory, plan)

    def stacked_weights(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(qp_rw, qp_ww, seg_rw, seg_ww)``."""
        with np.load(self.weights_path) as z:
            return tuple(z[key] for key in _WEIGHT_KEYS[:4])

    def vd_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-VD horizon ``(read, write)`` byte totals, taken at spill."""
        with np.load(self.weights_path) as z:
            return tuple(z[key] for key in _WEIGHT_KEYS[4:])

    def _raw_block(self, shard: int, batch: int) -> np.ndarray:
        """One raw (5, batch_vds, shard_len) block as a read-only memmap."""
        return np.load(self._series_path(shard, batch), mmap_mode="r")

    def series_for_shard(
        self, shard: int, arena: "Optional[Arena]" = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(read_b, write_b, read_i, write_i)`` as (num_vds, L) blocks.

        Rows are in VD-id order (batches are contiguous fleet-order
        ranges), so each matrix is bitwise equal to the corresponding
        time slice of the in-memory stacked series.

        Single-batch stores return zero-copy memmap views; multi-batch
        stores copy batch rows into one destination block per field
        (arena-reused when ``arena`` is given).
        """
        if self.plan.num_batches == 1:
            mm = self._raw_block(shard, 0)
            return mm[0], mm[1], mm[2], mm[3]
        t0, t1 = self.plan.shard_bounds(shard)
        shape = (self.plan.num_vds, t1 - t0)
        if arena is not None:
            out = tuple(
                arena.take(f"shards.series.{field}", shape)
                for field in _SERIES_FIELDS[:4]
            )
        else:
            out = tuple(np.empty(shape) for _ in _SERIES_FIELDS[:4])
        for batch in range(self.plan.num_batches):
            v0, v1 = self.plan.batch_bounds(batch)
            mm = self._raw_block(shard, batch)
            for fi in range(4):
                np.copyto(out[fi][v0:v1], mm[fi])
        return out  # type: ignore[return-value]

    def traffic_batch(self, batch: int) -> List[VdTraffic]:
        """Reassemble one batch of full-duration :class:`VdTraffic`.

        Time slices concatenate back to the exact original arrays and the
        static payload unpickles to the exact
        spill-time object state, so pass 2 draws the same streams it
        would have drawn in memory.
        """
        with open(self._static_path(batch), "rb") as fh:
            static = pickle.load(fh)
        v0, v1 = self.plan.batch_bounds(batch)
        block = np.empty(
            (len(_SERIES_FIELDS), v1 - v0, self.plan.duration_seconds)
        )
        for shard in range(self.plan.num_shards):
            t0, t1 = self.plan.shard_bounds(shard)
            np.copyto(block[:, :, t0:t1], self._raw_block(shard, batch))
        series = {
            field: block[fi] for fi, field in enumerate(_SERIES_FIELDS)
        }
        out: List[VdTraffic] = []
        for row, payload in enumerate(static):
            out.append(VdTraffic(
                **payload,
                **{field: series[field][row] for field in _SERIES_FIELDS},
            ))
        return out

    def materialize(self) -> List[VdTraffic]:
        """Every VD's traffic, in fleet order (defeats the memory bound)."""
        out: List[VdTraffic] = []
        for batch in range(self.plan.num_batches):
            out.extend(self.traffic_batch(batch))
        return out


class StreamedTraffic(TrafficSource):
    """Lazy ``Sequence[VdTraffic]`` view over a :class:`ShardStore`.

    As a :class:`~repro.cluster.simulator.TrafficSource` it feeds a run
    shard by shard (pass 1) and batch by batch (pass 2) without ever
    holding the whole ``(num_vds, T)`` series.  As
    ``SimulationResult.traffic`` of a streamed run, experiments iterate
    (or index) it like the in-memory list, with only a small window of
    batches resident at a time.  Values are bitwise equal to the
    in-memory list's, so any analysis downstream is unchanged.
    """

    streamed = True

    def __init__(self, store: ShardStore, cached_batches: int = 2):
        self._store = store
        self._cached_batches = max(1, int(cached_batches))
        self._cache: "Dict[int, List[VdTraffic]]" = {}
        self._lru: List[int] = []

    @property
    def duration_seconds(self) -> int:
        return self._store.plan.duration_seconds

    def __len__(self) -> int:
        return self._store.plan.num_vds

    def _batch(self, batch: int) -> List[VdTraffic]:
        if batch in self._cache:
            self._lru.remove(batch)
            self._lru.append(batch)
            return self._cache[batch]
        loaded = self._store.traffic_batch(batch)
        self._cache[batch] = loaded
        self._lru.append(batch)
        while len(self._lru) > self._cached_batches:
            evicted = self._lru.pop(0)
            del self._cache[evicted]
        return loaded

    def __getitem__(self, index: int) -> VdTraffic:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        batch, offset = divmod(index, self._store.plan.vd_batch_size)
        return self._batch(batch)[offset]

    def __iter__(self):
        for batch in range(self._store.plan.num_batches):
            yield from self._batch(batch)

    def shard_bounds(self) -> List[Tuple[int, int]]:
        return self._store.plan.all_shard_bounds()

    def shard_series(self, shard: int, arena: "Optional[Arena]" = None):
        return self._store.series_for_shard(shard, arena=arena)

    def stacked_weights(self):
        return self._store.stacked_weights()

    def vd_totals(self):
        return self._store.vd_totals()

    def pass2_chunks(self) -> Iterator[List[VdTraffic]]:
        for batch in range(self._store.plan.num_batches):
            yield self._store.traffic_batch(batch)

    def materialize(self) -> List[VdTraffic]:
        return self._store.materialize()


def purge_store(directory: "str | Path") -> None:
    """Delete a store's files (used for --shard-dir temp cleanup)."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in directory.iterdir():
        # .npy series blocks, .npz weights, .pkl static payloads
        # (regression: stores used to leave their series blocks behind
        # and the rmdir failed).
        if path.name == "manifest.json" or path.suffix in (
            ".npz", ".npy", ".pkl"
        ):
            path.unlink()
    try:
        directory.rmdir()
    except OSError:
        pass
