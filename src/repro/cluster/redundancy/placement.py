"""PlacementMap: the (segment, slot) -> BlockServer placement table.

This is the redesigned placement surface that replaces the trio of
ad-hoc accessors the cluster model grew around single-copy placement
(``block_server_of`` / ``segments_of`` / ``placement_snapshot``).  A
:class:`PlacementMap` is a dense ``(num_segments, width)`` int64 table:
row ``s`` lists the BlockServers holding segment ``s``'s copies (or
coded shares), column 0 being the *primary*.  Width-1 maps are the
single-copy degenerate case, so every legacy call site migrates onto
the same protocol.

Invariants (enforced on construction and on every mutation):

- every cell is a valid BlockServer id;
- no row repeats a BlockServer — copies of one segment are never
  co-located (a fault-domain rule the balancer must also respect).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.errors import SimulationError


def ring_table(
    primaries: Sequence[int], width: int, num_block_servers: int
) -> np.ndarray:
    """Expand primary placements into a ring table.

    Replica ``j`` of a segment whose primary is ``p`` lands on
    ``(p + j) % num_block_servers`` — chained declustering, the same
    round-robin family the fleet builder uses for primaries, so copies
    spread evenly and never collide while ``width <= num_block_servers``.
    """
    if width < 1:
        raise SimulationError(f"placement width must be >= 1, got {width}")
    if width > num_block_servers:
        raise SimulationError(
            f"cannot place {width} distinct copies on "
            f"{num_block_servers} BlockServers"
        )
    base = np.asarray(primaries, dtype=np.int64)
    return (base[:, None] + np.arange(width, dtype=np.int64)[None, :]) % np.int64(
        num_block_servers
    )


class PlacementMap:
    """Mutable placement table with per-slot migration support."""

    def __init__(self, table: np.ndarray, num_block_servers: int) -> None:
        table = np.asarray(table, dtype=np.int64)
        if table.ndim == 1:
            table = table[:, None]
        if table.ndim != 2:
            raise SimulationError(
                f"placement table must be 2-D (segments x slots), "
                f"got shape {table.shape}"
            )
        self._table = table.copy()
        self._num_bs = int(num_block_servers)
        self._check_table()
        # BS -> set of (segment, slot) copies resident there; built from
        # the table on first use (most maps are only ever read by table).
        self._resident_index: Optional[Dict[int, Set[Tuple[int, int]]]] = None

    @property
    def _resident(self) -> Dict[int, Set[Tuple[int, int]]]:
        if self._resident_index is None:
            index: Dict[int, Set[Tuple[int, int]]] = {
                bs: set() for bs in range(self._num_bs)
            }
            for seg, row in enumerate(self._table.tolist()):
                for slot, bs in enumerate(row):
                    index[bs].add((seg, slot))
            self._resident_index = index
        return self._resident_index

    def _check_table(self) -> None:
        table = self._table
        if table.size and (table.min() < 0 or table.max() >= self._num_bs):
            raise SimulationError(
                f"placement table references BlockServers outside "
                f"[0, {self._num_bs})"
            )
        if table.shape[1] > 1:
            ordered = np.sort(table, axis=1)
            if bool((ordered[:, 1:] == ordered[:, :-1]).any()):
                bad = np.nonzero(
                    (np.sort(table, axis=1)[:, 1:] == np.sort(table, axis=1)[:, :-1]).any(
                        axis=1
                    )
                )[0]
                raise SimulationError(
                    f"segment {int(bad[0])} has co-located copies: "
                    f"{table[int(bad[0])].tolist()}"
                )

    # -- shape ---------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        return int(self._table.shape[0])

    @property
    def width(self) -> int:
        return int(self._table.shape[1])

    @property
    def num_block_servers(self) -> int:
        return self._num_bs

    @property
    def table(self) -> np.ndarray:
        """Read-only view of the live table (do not mutate)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def table_array(self) -> np.ndarray:
        """Defensive copy of the full (num_segments, width) table."""
        return self._table.copy()

    def primary_array(self) -> np.ndarray:
        """Defensive copy of the primary column (slot 0)."""
        return self._table[:, 0].copy()

    # -- lookups -------------------------------------------------------------

    def _check_segment(self, segment_id: int) -> int:
        seg = int(segment_id)
        if not 0 <= seg < self.num_segments:
            raise SimulationError(f"unknown segment {segment_id}")
        return seg

    def primary_of(self, segment_id: int) -> int:
        """BlockServer holding the segment's primary copy (slot 0)."""
        return int(self._table[self._check_segment(segment_id), 0])

    def replicas_of(self, segment_id: int) -> Tuple[int, ...]:
        """All BlockServers holding the segment, slot order (primary first)."""
        return tuple(
            int(bs) for bs in self._table[self._check_segment(segment_id)]
        )

    def slot_of(self, segment_id: int, bs_id: int) -> int:
        """Which slot of the segment lives on ``bs_id`` (-1 if none)."""
        row = self._table[self._check_segment(segment_id)]
        hits = np.nonzero(row == int(bs_id))[0]
        return int(hits[0]) if hits.size else -1

    def primaries_on(self, bs_id: int) -> Set[int]:
        """Segments whose primary copy lives on ``bs_id``."""
        self._check_bs(bs_id)
        return {seg for seg, slot in self._resident[int(bs_id)] if slot == 0}

    def resident_on(self, bs_id: int) -> Set[Tuple[int, int]]:
        """All (segment, slot) copies resident on ``bs_id``."""
        self._check_bs(bs_id)
        return set(self._resident[int(bs_id)])

    def resident_count(self, bs_id: int) -> int:
        self._check_bs(bs_id)
        return len(self._resident[int(bs_id)])

    def _check_bs(self, bs_id: int) -> None:
        if not 0 <= int(bs_id) < self._num_bs:
            raise SimulationError(f"unknown BlockServer {bs_id}")

    # -- mutation ------------------------------------------------------------

    def set_slot(self, segment_id: int, slot: int, bs_id: int) -> int:
        """Move one copy; returns the BlockServer it moved from.

        Rejects out-of-range ids, no-op moves, and any move that would
        co-locate two copies of the segment.
        """
        seg = self._check_segment(segment_id)
        if not 0 <= int(slot) < self.width:
            raise SimulationError(
                f"segment {seg} has slots 0..{self.width - 1}, got {slot}"
            )
        self._check_bs(bs_id)
        slot = int(slot)
        dest = int(bs_id)
        row = self._table[seg]
        src = int(row[slot])
        if src == dest:
            raise SimulationError(
                f"segment {seg} slot {slot} already lives on BS {dest}"
            )
        if bool((row == dest).any()):
            raise SimulationError(
                f"segment {seg} already has a copy on BS {dest}; "
                f"copies must not co-locate"
            )
        self._table[seg, slot] = dest
        if self._resident_index is not None:
            self._resident_index[src].discard((seg, slot))
            self._resident_index[dest].add((seg, slot))
        return src

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Table/index consistency; raises SimulationError on violation."""
        self._check_table()
        total = 0
        for bs, copies in self._resident.items():
            for seg, slot in copies:
                if int(self._table[seg, slot]) != bs:
                    raise SimulationError(
                        f"resident index thinks segment {seg} slot {slot} "
                        f"is on BS {bs} but the table says "
                        f"{int(self._table[seg, slot])}"
                    )
            total += len(copies)
        expected = self.num_segments * self.width
        if total != expected:
            raise SimulationError(
                f"resident index holds {total} copies, expected {expected}"
            )

    # -- misc ----------------------------------------------------------------

    def primary_mapping(self) -> Dict[int, int]:
        """{segment -> primary BS} dict (legacy-shaped snapshot)."""
        return {seg: int(bs) for seg, bs in enumerate(self._table[:, 0])}

    def copy(self) -> "PlacementMap":
        return PlacementMap(self._table, self._num_bs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementMap(num_segments={self.num_segments}, "
            f"width={self.width}, num_block_servers={self._num_bs})"
        )
