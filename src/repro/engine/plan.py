"""Shard planning: how a run is cut along time and along the VD axis.

A :class:`StreamPlan` is pure arithmetic — no IO, no simulator state —
so it can be built identically in the parent and in worker processes,
and property-tested in isolation.  Time is cut at epoch multiples
(:data:`EPOCH_SECONDS` by default): a shard spans ``chunk_epochs``
epochs, the last shard is ragged.  VDs are cut into contiguous
fleet-order batches, which keeps every spilled series block a contiguous
row range of the stacked ``(vd, second)`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.util.errors import ConfigError

#: The engine's natural time quantum: one minute of simulated traffic.
#: Matches the paper's per-minute aggregation windows, and divides every
#: preset duration (small 400s is the one ragged case).
EPOCH_SECONDS = 60

#: Default VD-batch sizing target: series bytes held live per batch.
_DEFAULT_BATCH_BYTES = 64 * 2**20
#: Series per (VD, second): rb, wb, ri, wi, hot.
_SERIES_PER_VD = 5
#: Bytes per (VD, second) at the default float64 storage dtype.
_SERIES_BYTES_PER_SECOND = _SERIES_PER_VD * 8


@dataclass(frozen=True)
class StreamPlan:
    """Shard and batch boundaries for one streamed run."""

    duration_seconds: int
    epoch_seconds: int
    chunk_epochs: int
    num_vds: int
    vd_batch_size: int

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ConfigError("duration_seconds must be positive")
        if self.epoch_seconds <= 0:
            raise ConfigError("epoch_seconds must be positive")
        if self.chunk_epochs < 1:
            raise ConfigError(
                f"chunk_epochs must be >= 1, got {self.chunk_epochs}"
            )
        if self.num_vds < 1:
            raise ConfigError("num_vds must be >= 1")
        if self.vd_batch_size < 1:
            raise ConfigError("vd_batch_size must be >= 1")

    @property
    def shard_seconds(self) -> int:
        return self.epoch_seconds * self.chunk_epochs

    @property
    def num_shards(self) -> int:
        return -(-self.duration_seconds // self.shard_seconds)

    @property
    def num_batches(self) -> int:
        return -(-self.num_vds // self.vd_batch_size)

    def shard_bounds(self, shard: int) -> Tuple[int, int]:
        """Half-open ``[t0, t1)`` second range of one shard."""
        if not 0 <= shard < self.num_shards:
            raise ConfigError(f"shard {shard} out of range")
        t0 = shard * self.shard_seconds
        return t0, min(t0 + self.shard_seconds, self.duration_seconds)

    def batch_bounds(self, batch: int) -> Tuple[int, int]:
        """Half-open ``[v0, v1)`` VD-index range of one batch."""
        if not 0 <= batch < self.num_batches:
            raise ConfigError(f"batch {batch} out of range")
        v0 = batch * self.vd_batch_size
        return v0, min(v0 + self.vd_batch_size, self.num_vds)

    def all_shard_bounds(self) -> List[Tuple[int, int]]:
        return [self.shard_bounds(i) for i in range(self.num_shards)]


def plan_for(
    duration_seconds: int,
    num_vds: int,
    chunk_epochs: int,
    epoch_seconds: int = EPOCH_SECONDS,
    max_rss_mb: "int | None" = None,
    vd_batch_size: "int | None" = None,
    series_itemsize: int = 8,
) -> StreamPlan:
    """Build a :class:`StreamPlan`, sizing VD batches from a memory target.

    ``max_rss_mb`` is an advisory ceiling: the batch size is chosen so
    one batch of full-duration series stays within a quarter of it
    (leaving headroom for the pass-1 window temporaries and the merged
    tables).  It never changes *results* — only how much lives in RAM at
    once — so any value is digest-identical to any other.

    ``series_itemsize`` is the on-disk bytes per series value (8 for
    float64 stores, 4 for the opt-in float32 raw format), so halving the
    storage dtype doubles the VDs per batch under the same ceiling.
    """
    if series_itemsize <= 0:
        raise ConfigError(
            f"series_itemsize must be positive, got {series_itemsize}"
        )
    if vd_batch_size is None:
        budget = (
            max_rss_mb * 2**20 // 4
            if max_rss_mb is not None
            else _DEFAULT_BATCH_BYTES
        )
        per_vd = max(
            1, duration_seconds * _SERIES_PER_VD * series_itemsize
        )
        vd_batch_size = max(1, min(num_vds, budget // per_vd))
    return StreamPlan(
        duration_seconds=duration_seconds,
        epoch_seconds=epoch_seconds,
        chunk_epochs=chunk_epochs,
        num_vds=num_vds,
        vd_batch_size=int(vd_batch_size),
    )
