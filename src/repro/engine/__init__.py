"""Streaming, sharded execution: fleet-scale studies in bounded memory.

The engine cuts a run along two axes — time (epoch-aligned shards) and
the VD axis (fleet-order batches) — and spills generated traffic to a
columnar on-disk store.  The simulator's one run path
(:meth:`repro.cluster.simulator.EBSSimulator.run`) then reads that
store shard by shard, exactly as it reads in-memory traffic as a single
shard.  A deterministic merge reassembles full-run outputs that
are **byte-identical** to the in-memory run for any ``--chunk-epochs``
/ ``--workers`` choice.

Module map::

    plan      StreamPlan geometry (pure arithmetic, property-tested)
    arena     reusable scratch buffers for kernels and shard reloads
    shards    on-disk ShardStore (raw/mmap series) + StreamedTraffic source
    merge     ShardPart merge with the canonical row order
    digest    result / telemetry-snapshot digests (the parity yardstick)
    executor  StreamingSimulator: spills a run's traffic to a store
"""

from repro.engine.arena import Arena
from repro.engine.digest import result_digest, snapshot_digest
from repro.engine.executor import StreamingSimulator
from repro.engine.merge import ShardPart, merge_shard_parts
from repro.engine.plan import EPOCH_SECONDS, StreamPlan, plan_for
from repro.engine.shards import (
    SERIES_DTYPES,
    ShardStore,
    StreamedTraffic,
    purge_store,
)

__all__ = [
    "Arena",
    "EPOCH_SECONDS",
    "SERIES_DTYPES",
    "ShardPart",
    "ShardStore",
    "StreamPlan",
    "StreamedTraffic",
    "StreamingSimulator",
    "merge_shard_parts",
    "plan_for",
    "purge_store",
    "result_digest",
    "snapshot_digest",
]
