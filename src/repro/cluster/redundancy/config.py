"""The redundancy scheme of one cluster: replication or erasure coding.

A :class:`RedundancyConfig` describes how many physical copies (or
coded shares) each 32 GiB segment has and how reads/writes fan out over
them:

- ``r``-way **replication**: every copy holds the full segment.  A
  write lands on all ``r`` copies (r x byte amplification); a read is
  served by exactly one copy, chosen by the read policy.
- ``(k, m)`` **erasure coding**: the segment splits into ``k`` data
  shares plus ``m`` parity shares.  A write updates all ``k + m``
  shares, each carrying ``1/k`` of the segment's bytes (so the byte
  amplification is ``(k + m) / k``); a read reconstructs from any ``k``
  shares, each serving ``1/k`` of the read's bytes.  IOPS fan-out uses
  the same per-share weights — the model counts *logical IO units*, one
  per share touched, scaled by the share's byte fraction.

``r=1`` replication is the degenerate single-copy case under every read
policy (one copy leaves nothing to choose): the simulator detects it and
runs the exact single-copy code paths, which is what keeps the pinned
golden digests bit-for-bit stable and a fault plan's redirect/queue
semantics intact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.util.errors import ConfigError

_R_SPEC = re.compile(r"^r\s*=\s*(\d+)$")
_EC_SPEC = re.compile(r"^ec\s*=\s*(\d+)\s*\+\s*(\d+)$")


@dataclass(frozen=True)
class RedundancyConfig:
    """One redundancy scheme; immutable and hashable (sweepable)."""

    scheme: str = "replication"  # "replication" | "ec"
    r: int = 1                   # replication factor (scheme="replication")
    k: int = 0                   # data shares (scheme="ec")
    m: int = 0                   # parity shares (scheme="ec")

    def __post_init__(self) -> None:
        if self.scheme == "replication":
            if self.r < 1:
                raise ConfigError(
                    f"replication factor must be >= 1, got r={self.r}"
                )
            if self.k or self.m:
                raise ConfigError("replication takes r only, not k/m")
        elif self.scheme == "ec":
            if self.k < 1:
                raise ConfigError(f"ec needs k >= 1 data shares, got {self.k}")
            if self.m < 1:
                raise ConfigError(
                    f"ec needs m >= 1 parity shares, got {self.m} "
                    "(use replication for m=0)"
                )
            if self.r != 1:
                raise ConfigError("ec takes k+m only, not r")
        else:
            raise ConfigError(
                f"unknown redundancy scheme {self.scheme!r} "
                "(choose 'replication' or 'ec')"
            )

    # -- shape ---------------------------------------------------------------

    @property
    def width(self) -> int:
        """Physical copies/shares per segment (placement-table columns)."""
        return self.r if self.scheme == "replication" else self.k + self.m

    @property
    def read_fanout(self) -> int:
        """Copies one read touches: 1 replica, or k coded shares."""
        return 1 if self.scheme == "replication" else self.k

    @property
    def write_weight_scale(self) -> float:
        """Per-copy write weight: full copy (1.0) or 1/k of the bytes."""
        return 1.0 if self.scheme == "replication" else 1.0 / self.k

    @property
    def read_weight_cap(self) -> float:
        """Upper bound on one slot's read weight (EC shares serve <= 1/k)."""
        return 1.0 if self.scheme == "replication" else 1.0 / self.k

    @property
    def is_trivial(self) -> bool:
        """Single-copy placement — the single-copy paths run untouched,
        whatever the read policy."""
        return self.scheme == "replication" and self.r == 1

    @property
    def spec(self) -> str:
        """Canonical spec string (``"r=3"`` / ``"ec=4+2"``)."""
        if self.scheme == "replication":
            return f"r={self.r}"
        return f"ec={self.k}+{self.m}"

    # -- parsing -------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "RedundancyConfig":
        """Parse ``"r=3"`` or ``"ec=4+2"`` (whitespace-tolerant)."""
        text = str(spec).strip().lower()
        match = _R_SPEC.match(text)
        if match:
            return cls(scheme="replication", r=int(match.group(1)))
        match = _EC_SPEC.match(text)
        if match:
            return cls(scheme="ec", k=int(match.group(1)), m=int(match.group(2)))
        raise ConfigError(
            f"malformed redundancy spec {spec!r}; expected 'r=N' or 'ec=K+M'"
        )

    def validate_against(self, num_block_servers: int) -> None:
        """Every segment needs ``width`` distinct BlockServers."""
        if self.width > num_block_servers:
            raise ConfigError(
                f"redundancy {self.spec} needs {self.width} distinct "
                f"BlockServers per segment but the DC has only "
                f"{num_block_servers}"
            )
