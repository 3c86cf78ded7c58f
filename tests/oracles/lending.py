"""Reference Algorithm 2 replay, kept as a test oracle.

This is the straightforward form of
:func:`repro.throttle.lending.simulate_lending`: it steps every second
of the horizon, resets the caps at each period boundary, counts the
members at or over their caps, and runs the lend step at the first
throttled second of a period.  It is easy to audit and does a handful
of ufunc calls per second; the production replay, which steps per
period, must match its counts exactly
(``tests/throttle/test_lending_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.throttle.lending import LendingConfig, LendingOutcome
from repro.throttle.metrics import ThrottleGroup, _check_resource


def simulate_lending(
    group: ThrottleGroup,
    resource: str,
    config: LendingConfig = LendingConfig(),
) -> LendingOutcome:
    """Per-second replay of Algorithm 2 over one group's traffic."""
    _check_resource(resource)
    usage = group.usage(resource)
    base_caps = group.caps(resource).astype(float)
    num_members, duration = usage.shape

    without = int((usage >= base_caps[:, None]).sum())

    caps = base_caps.copy()
    lent_this_period = False
    throttled_with = 0
    for t in range(duration):
        if t % config.period_seconds == 0:
            caps = base_caps.copy()
            lent_this_period = False
        over = usage[:, t] >= caps
        throttled_with += int(over.sum())
        if lent_this_period or not over.any():
            continue
        measured = np.minimum(usage[:, t], caps)
        ar = float(base_caps.sum() - measured.sum())
        if ar <= 0:
            lent_this_period = True
            continue
        lendable = config.lending_rate * ar
        overshoot = np.clip(usage[:, t] - caps, 0.0, None)
        overshoot_total = overshoot[over].sum()
        if overshoot_total > 0:
            boost = lendable * overshoot / overshoot_total
        else:
            boost = np.where(over, lendable / max(1, over.sum()), 0.0)
        caps = caps + np.where(over, boost, 0.0)
        headroom = np.clip(caps - usage[:, t], 0.0, None)
        caps = caps - np.where(~over, config.lending_rate * headroom, 0.0)
        caps = np.maximum(caps, 1e-9)
        lent_this_period = True

    return LendingOutcome(
        label=group.label,
        resource=resource,
        throttled_seconds_without=without,
        throttled_seconds_with=throttled_with,
    )
