"""The limited-lending mechanism (§5.3, Algorithm 2) and its evaluation.

Lending runs in periods.  Caps start each period at their subscribed
values; at the first second of the period where some member is throttled,
the available resource ``AR(t) = sum(Cap) - sum(usage(t))`` is computed and
a ``p`` fraction of it is lent to the throttled members (split by their
overshoot), while the unthrottled members' caps shrink by ``p`` times their
individual headroom — total lent equals total reclaimed.  Adjusted caps
hold until the period ends, then reset ("Init {Cap_i}" in Algorithm 2).

The crucial realism, and the source of the negative gains in Fig 3(f)/(g):
a member that lent capacity away may burst later in the same period and hit
its *reduced* cap, throttling where it would not have throttled before.

Audit note — the lend step conserves cap mass exactly.  A suspected bug
was that returned tokens get double-counted when a lender is itself
throttled in the lend tick; the audit shows this cannot happen:

- A period lends at most once, and at that moment the caps still equal
  the subscribed caps, so every throttled member is clipped to its cap in
  ``measured`` and contributes *zero* to ``AR``.  ``AR`` is therefore
  exactly the summed headroom of the unthrottled members, and the total
  boost ``p * AR`` equals the total reclaimed mass ``p * headroom_i``
  summed over lenders — lent == reclaimed, token for token.
- The ``over`` / ``~over`` masks are complementary: a member throttled in
  the lend tick is a borrower, never a lender, even when its post-boost
  cap leaves it with positive headroom.  No member both receives and
  returns tokens in the same tick.
- The ``1e-9`` floor never binds: a lender's adjusted cap is
  ``(1 - p) * cap + p * usage > 0`` for any valid ``p``.

These invariants are pinned behaviorally by ``TestLendingConservation``
in ``tests/throttle/test_lending.py``; if a change creates or destroys
cap mass at the lend, those probes flip their throttle verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.throttle.metrics import ThrottleGroup, _check_resource
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class LendingConfig:
    """Parameters of the limited-lending simulation."""

    lending_rate: float = 0.8
    period_seconds: int = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.lending_rate < 1.0:
            raise ConfigError(
                f"lending_rate must be in (0, 1), got {self.lending_rate}"
            )
        if self.period_seconds <= 0:
            raise ConfigError("period_seconds must be positive")


@dataclass(frozen=True)
class LendingOutcome:
    """Throttle durations with and without lending for one group."""

    label: str
    resource: str
    throttled_seconds_without: int
    throttled_seconds_with: int

    @property
    def gain(self) -> float:
        """Lending gain in (-1, 1); > 0 means lending reduced throttling."""
        return lending_gain(
            self.throttled_seconds_without, self.throttled_seconds_with
        )


def lending_gain(seconds_without: int, seconds_with: int) -> float:
    """(t_without - t_with) / (t_without + t_with); 0.0 if neither throttles."""
    if seconds_without < 0 or seconds_with < 0:
        raise ConfigError("throttle durations must be non-negative")
    total = seconds_without + seconds_with
    if total == 0:
        return 0.0
    return (seconds_without - seconds_with) / total


def simulate_lending(
    group: ThrottleGroup,
    resource: str,
    config: LendingConfig = LendingConfig(),
) -> LendingOutcome:
    """Replay Algorithm 2 over one group's traffic.

    Returns the group's total throttled member-seconds with and without
    lending.  The without-lending baseline uses the static caps.

    The replay steps per period, not per second.  Until a period's first
    throttled second its caps equal the subscribed caps, and after that
    second's one lend step they stay constant until the period ends.  So
    one comparison against the subscribed caps finds every period's first
    throttled second, the lend step runs on that column alone, and the
    rest of the period is counted against the adjusted caps at once.
    The counts equal the per-second replay's
    (``tests/oracles/lending.py``).
    """
    _check_resource(resource)
    usage = group.usage(resource)
    base_caps = group.caps(resource).astype(float)
    duration = usage.shape[1]
    period = config.period_seconds

    per_second = (usage >= base_caps[:, None]).sum(axis=0)
    without = int(per_second.sum())

    throttled = np.flatnonzero(per_second)
    periods = throttled // period
    firsts = throttled[np.flatnonzero(np.diff(periods, prepend=-1))]
    throttled_with = 0
    for t in firsts.tolist():
        end = min((t // period + 1) * period, duration)
        throttled_with += int(per_second[t])
        caps = _lend(usage[:, t], base_caps, config.lending_rate)
        if caps is None:
            throttled_with += int(per_second[t + 1:end].sum())
        else:
            throttled_with += int(
                (usage[:, t + 1:end] >= caps[:, None]).sum()
            )

    return LendingOutcome(
        label=group.label,
        resource=resource,
        throttled_seconds_without=without,
        throttled_seconds_with=throttled_with,
    )


def _lend(
    column: np.ndarray, base_caps: np.ndarray, lending_rate: float
) -> "np.ndarray | None":
    """The caps after one lend step at a throttled second.

    ``column`` is the members' usage at the period's first throttled
    second, where the caps still equal ``base_caps``.  Returns None when
    there is nothing to lend (``AR <= 0``): the caps then stay at their
    subscribed values for the rest of the period.
    """
    over = column >= base_caps
    # AR is computed on *measured* traffic (clipped at the caps) like
    # the production hypervisor would observe it.
    measured = np.minimum(column, base_caps)
    ar = float(base_caps.sum() - measured.sum())
    if ar <= 0:
        return None
    lendable = lending_rate * ar
    overshoot = np.clip(column - base_caps, 0.0, None)
    overshoot_total = overshoot[over].sum()
    if overshoot_total > 0:
        boost = lendable * overshoot / overshoot_total
    else:
        boost = np.where(over, lendable / max(1, over.sum()), 0.0)
    caps = base_caps + np.where(over, boost, 0.0)
    # Unthrottled members give up p x their individual headroom.
    headroom = np.clip(caps - column, 0.0, None)
    caps = caps - np.where(~over, lending_rate * headroom, 0.0)
    return np.maximum(caps, 1e-9)
