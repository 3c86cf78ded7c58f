"""Deterministic merge of per-shard pass-1 outputs.

Each time shard yields a :class:`ShardPart`: two load-grid windows and
the raw metric-table columns for seconds ``[t0, t1)``.  Grids
concatenate along time (windows are disjoint and contiguous); each
table column concatenates row-wise across the parts, and one canonical
sort recovers the exact row permutation of a single-shard pass.

Why this is byte-identical: the vectorized pass emits metric rows
strictly ordered by ``(entity, timestamp)`` with unique key pairs
(the compute table is keyed by ``qp_id``, the storage table by its
storage entity: the segment, or under redundancy the replica, which
the pass emits as an ``entity_id`` column), and every per-cell grid
value is elementwise in time.  So ``np.lexsort((timestamp, entity))``
over the union of shard rows is not merely *a* deterministic order — it
is *the* single-shard order, and ``np.hstack`` of disjoint grid windows
is *the* single-shard grid.  Two copies of one segment share a
``(segment_id, timestamp)`` key, which is why the storage sort key is
the entity and not the segment.  A single part is already in that
order and is returned unsorted.

The merge works one column at a time and releases each part's copy of
a column as soon as it is merged, so beyond the tables themselves it
holds only the two key columns, the permutation and one column in
flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.dataset import ComputeMetricTable, StorageMetricTable
from repro.util.errors import ConfigError

#: Sort key column per table: the entity axis the vectorized pass
#: iterates over in ascending global-id order.  The storage key is a
#: merge-only column, dropped from the merged table.
COMPUTE_ENTITY_FIELD = "qp_id"
STORAGE_ENTITY_FIELD = "entity_id"


@dataclass
class ShardPart:
    """One time shard's pass-1 output, in window coordinates.

    ``compute_cols`` / ``storage_cols`` hold full-run timestamps already
    (the windowed pass offsets them by ``t0`` at append time); the grids
    cover only ``[t0, t1)`` columns.  A grids-only pass leaves both
    column dicts None.
    """

    t0: int
    t1: int
    wt_load: np.ndarray
    bs_load: np.ndarray
    compute_cols: Optional[Dict[str, np.ndarray]]
    storage_cols: Optional[Dict[str, np.ndarray]]


def merge_columns(
    parts: List[Dict[str, np.ndarray]], entity_field: str
) -> Dict[str, np.ndarray]:
    """Concatenate per-shard columns into single-shard row order.

    Primary key ascending entity id, secondary ascending timestamp —
    exactly the order the single-shard vectorized pass emits (entities
    in ascending global-id chunks; within an entity, ``np.nonzero``
    scans seconds ascending).  Key pairs are unique, so the permutation
    is total.  Empties the dicts in ``parts`` as it goes.
    """
    if len(parts) == 1:
        return dict(parts[0])
    keys = {
        name: np.concatenate([cols.pop(name) for cols in parts])
        for name in ("timestamp", entity_field)
    }
    perm = np.lexsort((keys["timestamp"], keys[entity_field]))
    merged: Dict[str, np.ndarray] = {}
    for name in list(keys) + list(parts[0]):
        column = keys.pop(name, None)
        if column is None:
            column = np.concatenate([cols.pop(name) for cols in parts])
        merged[name] = column[perm]
    return merged


def merge_shard_parts(
    parts: Sequence[ShardPart],
) -> Tuple[
    np.ndarray,
    np.ndarray,
    Optional[ComputeMetricTable],
    Optional[StorageMetricTable],
]:
    """Merge shard parts into full-run grids and metric tables.

    ``parts`` must be in ascending shard (time-window) order and cover
    the run contiguously; the result is bitwise equal to running pass 1
    once over the whole horizon.  The parts' columns are consumed.
    Grids-only parts (no columns) merge into the grids and two None
    tables.
    """
    if not parts:
        raise ConfigError("merging needs at least one shard part")
    for a, b in zip(parts, parts[1:]):
        if a.t1 != b.t0:
            raise ConfigError(
                f"shard windows not adjacent: [{a.t0},{a.t1}) + "
                f"[{b.t0},{b.t1})"
            )
    wt_load, bs_load = (
        np.hstack(grids) if len(grids) > 1 else grids[0]
        for grids in zip(*((part.wt_load, part.bs_load) for part in parts))
    )
    if parts[0].compute_cols is None:
        return wt_load, bs_load, None, None
    compute = merge_columns(
        [part.compute_cols for part in parts], COMPUTE_ENTITY_FIELD
    )
    storage = merge_columns(
        [part.storage_cols for part in parts], STORAGE_ENTITY_FIELD
    )
    del storage[STORAGE_ENTITY_FIELD]
    return (
        wt_load,
        bs_load,
        ComputeMetricTable(**compute),
        StorageMetricTable(**storage),
    )
