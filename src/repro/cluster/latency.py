"""Per-component latency model for the five traced stack stages.

Each IO's end-to-end latency decomposes into compute node (hypervisor),
frontend network, BlockServer, backend network, and ChunkServer, exactly the
five components DiTing traces.  Each component contributes:

- a base service time,
- a size-proportional transfer term,
- a queueing inflation ``1 / (1 - u)`` from the utilization of the shared
  resource (the WT for the compute stage, the BS for the storage stage),
- multiplicative lognormal jitter with a rare heavy-tail excursion.

Reads pay the ChunkServer media read cost; writes are persisted to an
append-only log (plus replication on the backend network), which is cheaper
at the media but pays the replication round on the backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError
from repro.util.units import MiB


@dataclass(frozen=True)
class LatencyConfig:
    """Base costs (microseconds) and shape parameters."""

    compute_base_us: float = 6.0
    frontend_base_us: float = 22.0
    block_server_base_us: float = 18.0
    backend_base_us: float = 14.0
    chunk_server_read_base_us: float = 85.0
    chunk_server_write_base_us: float = 35.0
    write_replication_factor: float = 2.0
    network_us_per_mib: float = 320.0  # ~25 Gbps effective
    media_us_per_mib: float = 450.0
    jitter_sigma: float = 0.25
    tail_probability: float = 0.002
    tail_multiplier: float = 20.0
    max_utilization: float = 0.95

    def __post_init__(self) -> None:
        for name in (
            "compute_base_us",
            "frontend_base_us",
            "block_server_base_us",
            "backend_base_us",
            "chunk_server_read_base_us",
            "chunk_server_write_base_us",
            "network_us_per_mib",
            "media_us_per_mib",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.tail_probability < 1.0:
            raise ConfigError("tail_probability must be in [0, 1)")
        if self.tail_multiplier < 1.0:
            raise ConfigError("tail_multiplier must be >= 1")
        if not 0.0 < self.max_utilization < 1.0:
            raise ConfigError("max_utilization must be in (0, 1)")


class LatencyModel:
    """Vectorized sampler of the five per-component latencies."""

    COMPONENTS = (
        "compute",
        "frontend",
        "block_server",
        "backend",
        "chunk_server",
    )

    def __init__(self, config: LatencyConfig = LatencyConfig()):
        self.config = config

    def _queueing(self, utilization: np.ndarray) -> np.ndarray:
        u = np.clip(utilization, 0.0, self.config.max_utilization)
        return 1.0 / (1.0 - u)

    def _jitter(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cfg = self.config
        jitter = rng.lognormal(0.0, cfg.jitter_sigma, size=n)
        if cfg.tail_probability > 0:
            tails = rng.random(n) < cfg.tail_probability
            jitter[tails] *= cfg.tail_multiplier
        return jitter

    def draw(
        self,
        rng: np.random.Generator,
        is_write: np.ndarray,
        size_bytes: np.ndarray,
    ) -> np.ndarray:
        """A batch's random part: one ``(5, n)`` row per component.

        The five jitter draws come in :data:`COMPONENTS` order whatever
        the utilization.  The rows of the two load-dependent components
        (``compute``, ``block_server``) hold their jitter factors; the
        other three need no load, so their rows hold finished latencies
        (us).  :meth:`combine` adds the loads.
        """
        cfg = self.config
        is_write = np.asarray(is_write, dtype=bool)
        size_mib = np.asarray(size_bytes, dtype=float) / MiB
        transfer_net = size_mib * cfg.network_us_per_mib
        drawn = np.empty((len(self.COMPONENTS), is_write.size))
        for row in drawn:
            row[:] = self._jitter(rng, is_write.size)
        drawn[1] = (cfg.frontend_base_us + transfer_net) * drawn[1]
        backend_cost = cfg.backend_base_us + transfer_net
        drawn[3] = np.where(
            is_write, backend_cost * cfg.write_replication_factor, backend_cost
        ) * drawn[3]
        chunk_base = np.where(
            is_write,
            cfg.chunk_server_write_base_us,
            cfg.chunk_server_read_base_us + size_mib * cfg.media_us_per_mib,
        )
        drawn[4] = chunk_base * drawn[4]
        return drawn

    def combine(
        self,
        drawn: np.ndarray,
        wt_utilization: np.ndarray,
        bs_utilization: np.ndarray,
    ) -> "dict[str, np.ndarray]":
        """Latency arrays (us) from :meth:`draw`'s rows and the loads.

        The load-free components are ``drawn``'s rows themselves.
        """
        cfg = self.config
        return {
            "compute": (
                cfg.compute_base_us
                * self._queueing(wt_utilization)
                * drawn[0]
            ),
            "frontend": drawn[1],
            "block_server": (
                cfg.block_server_base_us
                * self._queueing(bs_utilization)
                * drawn[2]
            ),
            "backend": drawn[3],
            "chunk_server": drawn[4],
        }

    def sample(
        self,
        rng: np.random.Generator,
        is_write: np.ndarray,
        size_bytes: np.ndarray,
        wt_utilization: np.ndarray,
        bs_utilization: np.ndarray,
    ) -> "dict[str, np.ndarray]":
        """Latency arrays (us) for a batch of IOs, keyed by component.

        ``wt_utilization``/``bs_utilization`` are per-IO utilizations of the
        worker thread and BlockServer serving each IO at its issue time.
        """
        is_write = np.asarray(is_write, dtype=bool)
        size = np.asarray(size_bytes, dtype=float)
        wt_u = np.asarray(wt_utilization, dtype=float)
        bs_u = np.asarray(bs_utilization, dtype=float)
        n = is_write.size
        if not (size.size == wt_u.size == bs_u.size == n):
            raise ConfigError("latency inputs must have equal lengths")
        if n == 0:
            return {name: np.zeros(0) for name in self.COMPONENTS}
        return self.combine(self.draw(rng, is_write, size), wt_u, bs_u)

    def cached_latency(
        self,
        rng: np.random.Generator,
        is_write: np.ndarray,
        size_bytes: np.ndarray,
        location: str,
    ) -> np.ndarray:
        """End-to-end latency (us) when an IO is served by a cache (§7.3.2).

        ``location`` is ``"compute_node"`` (the IO never leaves the CN) or
        ``"block_server"`` (it crosses the frontend but skips the CS and
        backend network).
        """
        if location not in ("compute_node", "block_server"):
            raise ConfigError(
                "cache location must be 'compute_node' or 'block_server', "
                f"got {location!r}"
            )
        is_write = np.asarray(is_write, dtype=bool)
        size = np.asarray(size_bytes, dtype=float)
        n = is_write.size
        cfg = self.config
        size_mib = size / MiB
        # Persistent cache media (flash/PMEM) on the serving node.
        media = 8.0 + size_mib * cfg.media_us_per_mib * 0.25
        compute = cfg.compute_base_us * self._jitter(rng, n)
        if location == "compute_node":
            return compute + media * self._jitter(rng, n)
        frontend = (
            cfg.frontend_base_us + size_mib * cfg.network_us_per_mib
        ) * self._jitter(rng, n)
        block_server = cfg.block_server_base_us * self._jitter(rng, n)
        return compute + frontend + block_server + media * self._jitter(rng, n)
