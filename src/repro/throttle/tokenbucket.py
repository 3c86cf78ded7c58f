"""Token-bucket enforcement of VD caps (§5's mechanism, not just its math).

The hypervisor enforces each VD's throughput and IOPS caps by queueing
excess IOs.  The §5 analyses clip offered traffic at the cap; this module
models the *mechanism*: a token bucket replenished at the cap rate with a
bounded burst allowance, producing the delivered traffic series, the
backlog, and the queueing delay — the latency spikes of the Calcspar
observation the paper cites (LSM stores hurt by IOPS throttling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.runtime import get_telemetry
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class TokenBucketConfig:
    """Rate and burst allowance of one cap."""

    rate_per_second: float
    #: Bucket depth in seconds of rate: 1.0 allows a one-second burst at
    #: 2x the rate before queueing starts.
    burst_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ConfigError("rate_per_second must be positive")
        if self.burst_seconds < 0:
            raise ConfigError("burst_seconds must be non-negative")

    @property
    def depth(self) -> float:
        return self.rate_per_second * self.burst_seconds


@dataclass
class ShapedTraffic:
    """Result of shaping an offered series through a token bucket."""

    delivered: np.ndarray     # units/s actually served each second
    backlog: np.ndarray       # units queued at the end of each second
    #: bool: queueing occurred during this second — either work was still
    #: queued at the end of it, or a carried-in backlog drained within it
    #: (those IOs waited, so the second counts as throttled).
    throttled: np.ndarray

    @property
    def throttled_seconds(self) -> int:
        return int(self.throttled.sum())

    def queue_delay_seconds(self, rate_per_second: float) -> np.ndarray:
        """Per-second drain-time estimate of the queued work (Little-ish)."""
        if rate_per_second <= 0:
            raise ConfigError("rate_per_second must be positive")
        return self.backlog / rate_per_second


class TokenBucket:
    """Discrete-time token bucket over one-second steps."""

    def __init__(self, config: TokenBucketConfig):
        self.config = config
        self._tokens = config.depth
        self._backlog = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    @property
    def backlog(self) -> float:
        return self._backlog

    def reset(self) -> None:
        """Restore the fresh-bucket state: full tokens, empty queue."""
        self._tokens = self.config.depth
        self._backlog = 0.0

    def step(self, offered: float) -> "tuple[float, float]":
        """Advance one second; returns (delivered, backlog).

        Over a one-second step the bucket can serve at most
        ``burst depth + rate`` (the carried-over tokens plus this second's
        refill); leftover tokens carry over only up to the depth.
        """
        if offered < 0:
            raise ConfigError("offered traffic must be non-negative")
        cfg = self.config
        available = min(
            self._tokens + cfg.rate_per_second, cfg.depth + cfg.rate_per_second
        )
        demand = self._backlog + offered
        delivered = min(demand, available)
        self._tokens = min(available - delivered, cfg.depth)
        self._backlog = demand - delivered
        return delivered, self._backlog

    def shape(self, offered: np.ndarray) -> ShapedTraffic:
        """Shape a whole offered series (units/s, one entry per second).

        The bucket is :meth:`reset` first, so ``shape`` always describes
        a fresh bucket: calling it twice (or after :meth:`step`) yields
        the same result as on a new instance.  Every caller shapes a
        whole per-VD series, so no state is carried between calls.
        """
        offered = np.asarray(offered, dtype=float)
        if offered.ndim != 1:
            raise ConfigError("offered series must be 1-D")
        if np.any(offered < 0):
            raise ConfigError("offered traffic must be non-negative")
        self.reset()
        delivered = np.empty_like(offered)
        backlog = np.empty_like(offered)
        throttled = np.empty(offered.size, dtype=bool)
        for t, value in enumerate(offered):
            carried_in = self._backlog > 1e-9
            delivered[t], backlog[t] = self.step(float(value))
            # A second is throttled if queueing occurred during it: work is
            # still queued at its end, or a carried-in backlog (whose IOs
            # waited into this second) drained within it.
            throttled[t] = carried_in or backlog[t] > 1e-9
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Integer amounts accumulated from array totals, so the merged
            # fleet view is deterministic for any worker partitioning.
            telemetry.counter("throttle.shape_calls").inc()
            telemetry.counter("throttle.seconds_shaped").inc(
                int(offered.size)
            )
            telemetry.counter("throttle.throttled_seconds").inc(
                int(throttled.sum())
            )
        return ShapedTraffic(
            delivered=delivered, backlog=backlog, throttled=throttled
        )


def shape_vd_traffic(
    offered_bps: np.ndarray,
    cap_bps: float,
    burst_seconds: float = 1.0,
) -> ShapedTraffic:
    """Convenience wrapper: shape one VD's throughput series at its cap."""
    bucket = TokenBucket(
        TokenBucketConfig(rate_per_second=cap_bps, burst_seconds=burst_seconds)
    )
    return bucket.shape(offered_bps)
