"""StreamPlan geometry: pure arithmetic, property-tested."""

import pytest

from repro.engine.plan import EPOCH_SECONDS, StreamPlan, plan_for
from repro.util.errors import ConfigError
from tests.strategies import examples, rng_for


def _random_plan(rng):
    return StreamPlan(
        duration_seconds=int(rng.integers(1, 2000)),
        epoch_seconds=int(rng.integers(1, 120)),
        chunk_epochs=int(rng.integers(1, 9)),
        num_vds=int(rng.integers(1, 300)),
        vd_batch_size=int(rng.integers(1, 64)),
    )


class TestStreamPlan:
    @pytest.mark.parametrize("seed", range(40))
    def test_shards_partition_the_horizon(self, seed):
        plan = _random_plan(rng_for(seed))
        bounds = plan.all_shard_bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == plan.duration_seconds
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0  # contiguous, disjoint
            assert a1 - a0 == plan.shard_seconds  # only the last is ragged
        assert all(t1 > t0 for t0, t1 in bounds)

    @pytest.mark.parametrize("seed", range(40))
    def test_batches_partition_the_fleet(self, seed):
        plan = _random_plan(rng_for(seed))
        bounds = [plan.batch_bounds(b) for b in range(plan.num_batches)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == plan.num_vds
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
        assert sum(v1 - v0 for v0, v1 in bounds) == plan.num_vds

    def test_ragged_last_shard(self):
        plan = StreamPlan(
            duration_seconds=400,
            epoch_seconds=EPOCH_SECONDS,
            chunk_epochs=3,
            num_vds=10,
            vd_batch_size=4,
        )
        assert plan.shard_seconds == 180
        assert plan.num_shards == 3
        assert plan.shard_bounds(2) == (360, 400)
        assert plan.num_batches == 3
        assert plan.batch_bounds(2) == (8, 10)

    def test_bounds_reject_out_of_range(self):
        plan = _random_plan(rng_for(1))
        with pytest.raises(ConfigError):
            plan.shard_bounds(plan.num_shards)
        with pytest.raises(ConfigError):
            plan.batch_bounds(-1)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(duration_seconds=0),
            dict(epoch_seconds=0),
            dict(chunk_epochs=0),
            dict(num_vds=0),
            dict(vd_batch_size=0),
        ],
    )
    def test_validation(self, bad):
        kwargs = dict(
            duration_seconds=60,
            epoch_seconds=60,
            chunk_epochs=1,
            num_vds=4,
            vd_batch_size=2,
        )
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            StreamPlan(**kwargs)


class TestPlanFor:
    def test_memory_target_shrinks_batches(self):
        roomy = plan_for(duration_seconds=1200, num_vds=1000, chunk_epochs=2)
        tight = plan_for(
            duration_seconds=1200, num_vds=1000, chunk_epochs=2,
            max_rss_mb=8,
        )
        assert tight.vd_batch_size < roomy.vd_batch_size
        assert tight.vd_batch_size >= 1

    def test_explicit_batch_size_wins(self):
        plan = plan_for(
            duration_seconds=600, num_vds=50, chunk_epochs=1,
            max_rss_mb=1, vd_batch_size=7,
        )
        assert plan.vd_batch_size == 7

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_size_never_exceeds_fleet(self, seed):
        rng = rng_for(seed + 500)
        plan = plan_for(
            duration_seconds=int(rng.integers(1, 3000)),
            num_vds=int(rng.integers(1, 40)),
            chunk_epochs=int(rng.integers(1, 6)),
            max_rss_mb=int(rng.integers(1, 256)),
        )
        assert 1 <= plan.vd_batch_size <= max(1, plan.num_vds)


def test_examples_are_deterministic():
    a = examples(_random_plan, 5, seed=3)
    b = examples(_random_plan, 5, seed=3)
    assert a == b
