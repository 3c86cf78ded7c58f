"""The array crash adjustments against their per-entity oracles.

:meth:`FaultTimeline._adjust_crashes` (segments, under both redirect
policies) and :func:`adjust_replica_crashes` (replicas, with failover)
must leave exactly what the loops in ``tests/oracles/crashes.py``
leave: the same four adjusted series, the same serving-BS table and a
:class:`FaultAccounting` equal to the last float bit.
"""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.redundancy import ring_table
from repro.cluster.redundancy.expand import adjust_replica_crashes
from repro.faults.generate import PlanShape
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, RedirectPolicy
from repro.faults.timeline import FaultAccounting, FaultTimeline
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet
from tests.oracles.crashes import (
    reference_adjust_crashes,
    reference_replica_crashes,
)
from tests.strategies import fault_plans_with_shape, rng_for

#: Long enough that epoch windows exceed numpy's pairwise-sum blocks.
T = 400
POLICIES = [RedirectPolicy.QUEUE, RedirectPolicy.REDIRECT]


@pytest.fixture(scope="module")
def fleet():
    """Six BlockServers on three storage nodes, so crashes of a node,
    of neighbours and chains of redirect hops all occur."""
    config = FleetConfig(
        dc_id=0,
        num_users=3,
        num_vms=10,
        num_compute_nodes=3,
        num_storage_nodes=3,
        block_servers_per_node=2,
    )
    return build_fleet(config, RngFactory(777))


def _bits(acct: FaultAccounting) -> dict:
    return {f.name: float(getattr(acct, f.name)).hex() for f in fields(acct)}


def _check(fleet, plan: FaultPlan, seed: int) -> None:
    """Both implementations on the same random inputs, compared exactly."""
    timeline = FaultTimeline(plan, fleet, T)
    rng = rng_for(seed)
    num_segments = len(fleet.segments)
    seg_to_bs = rng.integers(0, timeline.num_bs, num_segments)
    series = [
        rng.lognormal(2.0, 1.5, (num_segments, T))
        * (rng.random((num_segments, T)) < 0.7)
        for _ in range(4)
    ]
    # Earlier stages (the stall adjustment) leave mass in the accounting.
    start = FaultAccounting(
        **{f.name: float(rng.random() * 1e3) for f in fields(FaultAccounting)}
    )
    want_series = [array.copy() for array in series]
    want_acct = replace(start)
    want_ep = reference_adjust_crashes(
        timeline, seg_to_bs, *want_series, want_acct
    )
    got_acct = replace(start)
    got_ep = timeline._adjust_crashes(seg_to_bs, *series, got_acct)
    assert got_ep.dtype == want_ep.dtype
    assert np.array_equal(got_ep, want_ep)
    for got, want in zip(series, want_series):
        assert got.tobytes() == want.tobytes()
    assert _bits(got_acct) == _bits(want_acct)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_random_plans_match_the_oracle(fleet, policy, seed):
    shape = PlanShape.of_fleet(fleet, T)
    plan = replace(fault_plans_with_shape(rng_for(seed), shape), policy=policy)
    _check(fleet, plan, seed)


def _crash(target, start, end, kind=FaultKind.BS_CRASH):
    return FaultEvent(kind=kind, start_s=start, end_s=end, target=target)


EDGE_PLANS = {
    # BS 0 is down over two epochs (its own crash, then its node's), so
    # both drain into the same second, 150; that second lies in a later
    # epoch cut by BS 3's crash.
    "drains-share-a-second": (
        _crash(0, 40, 120),
        _crash(0, 90, 150, FaultKind.CS_CRASH),
        _crash(3, 140, 200),
    ),
    # Down until the horizon: queued mass never drains and is dropped.
    "never-recovers": (_crash(2, 300, T + 50), _crash(4, 10, 30)),
    # With one hop allowed, BS 1's only candidate (BS 2) is down too.
    "no-redirect-target": (_crash(1, 20, 260), _crash(2, 0, 300)),
    # Every BS but one down: long chains, and drops past the hop limit.
    "one-survivor": tuple(_crash(bs, 50 + bs, 350) for bs in range(5)),
}


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("events", EDGE_PLANS.values(), ids=EDGE_PLANS)
def test_edge_plans_match_the_oracle(fleet, policy, events):
    for attempts in (1, 3):
        plan = FaultPlan(
            events=events, policy=policy, max_redirect_attempts=attempts
        )
        _check(fleet, plan, seed=attempts)


def test_no_redirect_target_drops(fleet):
    plan = FaultPlan(
        events=EDGE_PLANS["no-redirect-target"],
        policy=RedirectPolicy.REDIRECT,
        max_redirect_attempts=1,
    )
    timeline = FaultTimeline(plan, fleet, T)
    assert (timeline.redirect_map[1] == -1).any()
    num_segments = len(fleet.segments)
    seg_to_bs = np.full(num_segments, 1)
    series = [np.ones((num_segments, T)) for _ in range(4)]
    acct = FaultAccounting()
    timeline._adjust_crashes(seg_to_bs, *series, acct)
    assert acct.dropped_storage_ios == 2.0 * num_segments * (260 - 20)
    assert acct.redirected_ios == 0.0


def _check_replicas(fleet, plan: FaultPlan, width: int, seed: int) -> None:
    """The replica path against its oracle on a random ring placement."""
    timeline = FaultTimeline(plan, fleet, T)
    rng = rng_for(seed)
    num_segments = 40
    table = ring_table(
        rng.integers(0, timeline.num_bs, num_segments), width, timeline.num_bs
    )
    exp = SimpleNamespace(
        table=table,
        rep_seg=np.repeat(np.arange(num_segments), width),
        rep_bs=table.ravel(),
    )
    replicas = num_segments * width
    series = [
        rng.lognormal(2.0, 1.5, (replicas, T))
        * (rng.random((replicas, T)) < 0.7)
        * (rng.random((replicas, 1)) < 0.8)  # some copies carry nothing
        for _ in range(4)
    ]
    start = FaultAccounting(
        **{f.name: float(rng.random() * 1e3) for f in fields(FaultAccounting)}
    )
    want_series = [array.copy() for array in series]
    want_acct = replace(start)
    want_ep = reference_replica_crashes(
        exp, timeline, *want_series, want_acct
    )
    got_acct = replace(start)
    got_ep = adjust_replica_crashes(exp, timeline, *series, got_acct)
    assert np.array_equal(got_ep, want_ep)
    for got, want in zip(series, want_series):
        assert got.tobytes() == want.tobytes()
    assert _bits(got_acct) == _bits(want_acct)


@pytest.mark.parametrize("width", [2, 3])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_random_plans_match_the_replica_oracle(fleet, width, seed):
    shape = PlanShape.of_fleet(fleet, T)
    _check_replicas(
        fleet, fault_plans_with_shape(rng_for(seed), shape), width, seed
    )


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("events", EDGE_PLANS.values(), ids=EDGE_PLANS)
def test_edge_plans_match_the_replica_oracle(fleet, width, events):
    _check_replicas(fleet, FaultPlan(events=events), width, seed=width)
