"""The per-period Algorithm 2 replay against the per-second oracle.

``simulate_lending`` finds each period's first throttled second with one
array pass, runs the lend step on that column and counts the rest of the
period against the adjusted caps in one comparison.  The oracle in
``tests/oracles/lending.py`` steps every second; the throttle counts
must be equal on every group.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.experiments.throttle import _groups
from repro.core.study import Study
from repro.throttle import LendingConfig, simulate_lending
from repro.throttle.metrics import ThrottleGroup
from tests.oracles import lending as oracle


def _group(usage, caps):
    usage = np.asarray(usage, dtype=float)
    caps = np.asarray(caps, dtype=float)
    zeros = np.zeros_like(usage)
    return ThrottleGroup(
        label="g",
        members=list(range(usage.shape[0])),
        read_bytes=zeros,
        write_bytes=usage,
        read_iops=zeros,
        write_iops=usage / 10.0,
        cap_bps=caps,
        cap_iops=caps / 10.0,
    )


def _assert_same(group, config):
    for resource in ("throughput", "iops"):
        got = simulate_lending(group, resource, config)
        want = oracle.simulate_lending(group, resource, config)
        assert got == want


@st.composite
def _cases(draw):
    members = draw(st.integers(1, 5))
    duration = draw(st.integers(1, 45))
    period = draw(st.integers(1, 16))
    rate = draw(st.sampled_from((0.2, 0.5, 0.8, 0.95)))
    caps = draw(
        st.lists(st.integers(1, 8), min_size=members, max_size=members)
    )
    # Small integer usage on the caps' scale gives exact ties (a member
    # exactly at its cap: zero overshoot), idle seconds, and saturated
    # seconds where AR <= 0.
    usage = draw(
        st.lists(
            st.integers(0, 12), min_size=members * duration,
            max_size=members * duration,
        )
    )
    usage = np.array(usage, dtype=float).reshape(members, duration) * 10.0
    return (
        _group(usage, np.array(caps) * 10.0),
        LendingConfig(lending_rate=rate, period_seconds=period),
    )


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_cases())
    def test_counts_match(self, case):
        group, config = case
        _assert_same(group, config)

    def test_duration_not_a_multiple_of_the_period(self):
        # 7 periods of 3 s, then a 2 s tail that throttles from its start.
        usage = [[0, 40, 0] * 7 + [40, 40], [10, 0, 0] * 7 + [0, 0]]
        group = _group(usage, [30, 30])
        config = LendingConfig(lending_rate=0.5, period_seconds=3)
        _assert_same(group, config)
        assert simulate_lending(group, "throughput", config) \
            .throttled_seconds_without == 9

    def test_saturated_second_keeps_the_base_caps(self):
        # AR <= 0 at the first throttle: no lend, base caps to the end.
        usage = [[50, 10, 50, 0], [50, 0, 20, 60]]
        group = _group(usage, [30, 30])
        config = LendingConfig(lending_rate=0.8, period_seconds=4)
        _assert_same(group, config)
        out = simulate_lending(group, "throughput", config)
        assert out.throttled_seconds_with == out.throttled_seconds_without

    def test_zero_total_overshoot_splits_evenly(self):
        # Both throttled members sit exactly at their caps.
        usage = [[30, 35, 0], [30, 0, 35], [0, 0, 0]]
        group = _group(usage, [30, 30, 60])
        config = LendingConfig(lending_rate=0.5, period_seconds=3)
        _assert_same(group, config)

    def test_periods_without_throttle(self):
        usage = np.full((3, 50), 5.0)
        usage[1, 37] = 100.0
        group = _group(usage, [10, 10, 10])
        config = LendingConfig(lending_rate=0.8, period_seconds=10)
        _assert_same(group, config)
        assert simulate_lending(group, "throughput", config) \
            .throttled_seconds_with == 1

    def test_empty_horizon(self):
        group = _group(np.zeros((2, 0)), [10, 10])
        _assert_same(group, LendingConfig(period_seconds=5))


@pytest.fixture(scope="module")
def groups():
    study = Study(StudyConfig.scale("small", seed=5, duration_seconds=120))
    study.build()
    vm_groups, node_groups = _groups(study)
    return vm_groups + node_groups


@pytest.mark.parametrize("rate", (0.2, 0.8))
@pytest.mark.parametrize("period", (7, 60))
def test_study_groups_match(groups, rate, period):
    config = LendingConfig(lending_rate=rate, period_seconds=period)
    for group in groups:
        _assert_same(group, config)
