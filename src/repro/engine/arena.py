"""Reusable buffer arena for the fused pass-1 kernels and shard reloads.

A hot streamed run calls the same kernels once per (shard, chunk); every
call used to allocate the same handful of large temporaries (tens to
hundreds of MiB at ``xlarge``) just to free them microseconds later.
:class:`Arena` keeps one flat backing buffer per call-site name and hands
out shaped views into it, so steady-state epochs run allocation-free.

Correctness notes:

- a view is only valid until the next :meth:`take` with the same name —
  callers must fully consume (or copy out of) a buffer before reusing
  its slot, which the pass-1 loop structure guarantees;
- buffers are handed back *uninitialized* (the previous call's bytes);
  every kernel writes each cell before reading it, so values — and
  therefore result digests — are independent of the arena's history;
- arenas never travel to worker processes: pickling one yields a fresh
  empty arena (the buffers are pure scratch, and shipping hundreds of
  MiB of garbage through a ``ProcessPoolExecutor`` would defeat the
  point).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class Arena:
    """Named, capacity-grown scratch buffers handed out as shaped views."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(
        self,
        name: str,
        shape: "Tuple[int, ...]",
        dtype: "np.dtype | type" = np.float64,
    ) -> np.ndarray:
        """A C-contiguous ``shape``/``dtype`` view backed by slot ``name``.

        The backing buffer grows monotonically to the largest byte size
        ever requested for the slot and is reused for every smaller (or
        equal) request.  Contents are unspecified — treat it like
        ``np.empty``.
        """
        dtype = np.dtype(dtype)
        needed = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < needed:
            buf = np.empty(max(needed, 1), dtype=np.uint8)
            self._buffers[name] = buf
        return buf[:needed].view(dtype).reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held across all slots."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def __reduce__(self):
        # Scratch state never crosses process boundaries: a pickled
        # arena reconstructs empty on the other side.
        return (Arena, ())
