"""Read-assignment policies: how reads spread over a segment's copies.

Every policy maps the placement table plus per-segment offered masses
to a weight matrix ``W`` of shape ``(num_segments, width)`` where
``W[s, j]`` is the fraction of segment ``s``'s read traffic served by
the copy in slot ``j``.  Contract (property-tested):

- rows sum to 1 (read mass is conserved across copies);
- ``0 <= W[s, j] <= cap`` where the cap is 1 for replication and
  ``1/k`` for (k, m) erasure coding — a coded share can serve at most
  its ``1/k`` byte fraction of any read.

Policies are deterministic given the same inputs; the only stochastic
one (power-of-two-choices) draws from a label-keyed RNG stream passed
in by the simulator, so both simulator paths see identical weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.util.errors import ConfigError
from repro.cluster.redundancy.config import RedundancyConfig

READ_POLICY_NAMES = ("primary", "least_loaded", "power_of_two", "water_filling")


@dataclass(frozen=True)
class PolicyInputs:
    """Everything a read policy may consult."""

    table: np.ndarray          # (S, W) int64 replica placement
    seg_read_mass: np.ndarray  # (S,) offered read bytes over the horizon
    seg_write_mass: np.ndarray  # (S,) offered write bytes PER COPY (fan-out cost)
    num_block_servers: int
    cap: float                 # per-slot weight cap (1.0 or 1/k)
    read_fanout: int           # copies one read touches (1 or k)


@runtime_checkable
class ReadPolicy(Protocol):
    """A read policy produces the (S, W) weight matrix."""

    def __call__(
        self, inputs: PolicyInputs, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray: ...


def _base_bs_load(inputs: PolicyInputs) -> np.ndarray:
    """Per-BS load before read steering: the write fan-out mass.

    Every copy/share receives its per-copy write mass regardless of the
    read policy, so load-aware policies seed their view with it.
    """
    load = np.zeros(inputs.num_block_servers, dtype=np.float64)
    width = inputs.table.shape[1]
    np.add.at(
        load,
        inputs.table.ravel(),
        np.repeat(inputs.seg_write_mass, width),
    )
    return load


def _primary(inputs: PolicyInputs, rng=None) -> np.ndarray:
    """Baseline: reads go to the primary (replication) / first k shares (EC)."""
    num_segments, width = inputs.table.shape
    weights = np.zeros((num_segments, width), dtype=np.float64)
    fanout = inputs.read_fanout
    weights[:, :fanout] = 1.0 / fanout
    return weights


def _descending_mass_order(inputs: PolicyInputs) -> np.ndarray:
    """Heaviest readers first, ties broken by ascending segment id."""
    num_segments = inputs.table.shape[0]
    return np.lexsort((np.arange(num_segments), -inputs.seg_read_mass))


def _least_loaded(inputs: PolicyInputs, rng=None) -> np.ndarray:
    """Greedy: each segment's reads go to its currently lightest copies.

    Segments are visited heaviest-first so the big flows commit before
    the long tail fills in around them.  Copies are ranked by their BS's
    current load, ties to the lower slot (a stable sort over slots), and
    the loads are Python floats: one segment's pick is a few scalar
    operations, where numpy would pay its call overhead per segment.
    A row's copies sit on distinct BlockServers (placement checks it).
    """
    num_segments, width = inputs.table.shape
    load = _base_bs_load(inputs).tolist()
    table = inputs.table.tolist()
    mass = inputs.seg_read_mass.tolist()
    fanout = inputs.read_fanout
    share = 1.0 / fanout
    slots = range(width)
    order = _descending_mass_order(inputs)
    chosen = []
    for seg in order.tolist():
        row = table[seg]
        loads = [load[bs] for bs in row]
        picks = sorted(slots, key=loads.__getitem__)[:fanout]
        added = mass[seg] * share
        for slot in picks:
            load[row[slot]] += added
        chosen.extend(picks)
    weights = np.zeros((num_segments, width), dtype=np.float64)
    rows = np.repeat(order, fanout)
    weights[rows, np.asarray(chosen, dtype=np.int64)] = share
    return weights


def _power_of_two(
    inputs: PolicyInputs, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Power-of-two-choices: sample two slots, keep the lighter one.

    For EC, the k serving shares are picked one at a time, each by a
    two-sample tournament over the still-unchosen slots.
    """
    if rng is None:
        raise ConfigError("power_of_two read policy needs an RNG stream")
    num_segments, width = inputs.table.shape
    weights = np.zeros((num_segments, width), dtype=np.float64)
    load = _base_bs_load(inputs)
    fanout = inputs.read_fanout
    share = 1.0 / fanout
    for seg in range(num_segments):
        row = inputs.table[seg]
        remaining = list(range(width))
        for _ in range(fanout):
            if len(remaining) == 1:
                pick = remaining[0]
            else:
                pair = rng.choice(len(remaining), size=2, replace=False)
                a, b = remaining[int(pair[0])], remaining[int(pair[1])]
                la, lb = load[row[a]], load[row[b]]
                pick = a if (la, a) <= (lb, b) else b
            remaining.remove(pick)
            weights[seg, pick] = share
            load[row[pick]] += inputs.seg_read_mass[seg] * share
    return weights


def _water_filling(inputs: PolicyInputs, rng=None) -> np.ndarray:
    """Batch water-filling: fractional level-fill of each segment's copies.

    Reads split fractionally so the copies' loads equalize as far as
    the per-slot cap allows — the fluid-limit optimum of least-loaded.
    Solved per segment by bisection on the water level.
    """
    num_segments, width = inputs.table.shape
    weights = np.zeros((num_segments, width), dtype=np.float64)
    load = _base_bs_load(inputs)
    fanout = inputs.read_fanout
    for seg in _descending_mass_order(inputs):
        row = inputs.table[seg]
        mass = float(inputs.seg_read_mass[seg])
        if mass <= 0.0:
            weights[seg, :fanout] = 1.0 / fanout
            continue
        cap_mass = inputs.cap * mass
        levels = load[row].astype(np.float64)
        lo = float(levels.min())
        hi = float(levels.max()) + mass + cap_mass
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            filled = np.clip(mid - levels, 0.0, cap_mass).sum()
            if filled < mass:
                lo = mid
            else:
                hi = mid
        alloc = np.clip(hi - levels, 0.0, cap_mass)
        total = alloc.sum()
        if total <= 0.0:
            weights[seg, :fanout] = 1.0 / fanout
            continue
        row_weights = alloc / total
        weights[seg] = row_weights
        load[row] += mass * row_weights
    return weights


_POLICIES = {
    "primary": _primary,
    "least_loaded": _least_loaded,
    "power_of_two": _power_of_two,
    "water_filling": _water_filling,
}


def assign_read_weights(
    policy: str,
    config: RedundancyConfig,
    table: np.ndarray,
    seg_read_mass: np.ndarray,
    seg_write_mass: np.ndarray,
    num_block_servers: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run a named policy; returns the (S, W) read-weight matrix."""
    if policy not in _POLICIES:
        raise ConfigError(
            f"unknown read policy {policy!r}; choose one of "
            f"{', '.join(READ_POLICY_NAMES)}"
        )
    inputs = PolicyInputs(
        table=np.asarray(table, dtype=np.int64),
        seg_read_mass=np.asarray(seg_read_mass, dtype=np.float64),
        seg_write_mass=np.asarray(seg_write_mass, dtype=np.float64),
        num_block_servers=int(num_block_servers),
        cap=config.read_weight_cap,
        read_fanout=config.read_fanout,
    )
    return _POLICIES[policy](inputs, rng)
