"""Sketch guarantees: Count-Min never under, Space-Saving brackets truth."""

import numpy as np
import pytest

from repro.live import CountMinSketch, SpaceSaving
from repro.util.errors import ConfigError


def zipf_stream(num_keys=500, num_updates=20_000, seed=5):
    """A deterministic skewed (key, weight) stream plus its ground truth."""
    rng = np.random.default_rng(seed)
    keys = rng.zipf(1.5, size=num_updates).astype(np.int64) % num_keys
    weights = rng.uniform(1.0, 100.0, size=num_updates)
    truth = np.zeros(num_keys)
    np.add.at(truth, keys, weights)
    return keys, weights, truth


class TestCountMin:
    def test_never_underestimates(self):
        keys, weights, truth = zipf_stream()
        sketch = CountMinSketch(width=512, depth=4)
        sketch.update_many(keys, weights)
        all_keys = np.arange(truth.size, dtype=np.int64)
        estimates = sketch.estimate_many(all_keys)
        assert np.all(estimates >= truth - 1e-9)

    def test_error_bound_holds_on_average(self):
        """Classic CM bound: overestimate <= 2 * total / width for most
        keys (e/width expected; 2x leaves slack for one fixed seed)."""
        keys, weights, truth = zipf_stream()
        sketch = CountMinSketch(width=1024, depth=4)
        sketch.update_many(keys, weights)
        all_keys = np.arange(truth.size, dtype=np.int64)
        over = sketch.estimate_many(all_keys) - truth
        bound = 2.0 * sketch.total_weight / sketch.width
        assert np.mean(over <= bound) > 0.9

    def test_batched_equals_incremental(self):
        keys, weights, _ = zipf_stream(num_updates=2_000)
        one = CountMinSketch(width=256, depth=3)
        one.update_many(keys, weights)
        parts = CountMinSketch(width=256, depth=3)
        half = len(keys) // 2
        parts.update_many(keys[:half], weights[:half])
        parts.update_many(keys[half:], weights[half:])
        assert np.array_equal(one._table, parts._table)
        assert one.estimate(7) == parts.estimate(7)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            CountMinSketch(width=1)
        with pytest.raises(ConfigError):
            CountMinSketch(depth=0)
        sketch = CountMinSketch()
        with pytest.raises(ConfigError):
            sketch.update_many(np.zeros(3, dtype=np.int64), np.zeros(2))


class TestSpaceSaving:
    def test_counts_conserve_total_weight(self):
        keys, weights, _ = zipf_stream()
        summary = SpaceSaving(capacity=32)
        summary.update_many(keys, weights)
        assert np.isclose(
            sum(count for _, count, _ in summary.topk()),
            summary.total_weight,
        )
        assert summary.min_count <= summary.total_weight / summary.capacity

    def test_entries_bracket_the_truth(self):
        keys, weights, truth = zipf_stream()
        summary = SpaceSaving(capacity=32)
        summary.update_many(keys, weights)
        for key, count, error in summary.topk():
            assert count + 1e-6 >= truth[key]
            assert count - error <= truth[key] + 1e-6

    def test_monitored_superset_of_heavy_keys(self):
        """Every key with true weight above min_count is monitored, so
        whenever the error bound permits a clean cut the summary's
        candidates are a superset of the true top-K."""
        keys, weights, truth = zipf_stream()
        summary = SpaceSaving(capacity=32)
        summary.update_many(keys, weights)
        threshold = summary.min_count
        heavy = set(np.nonzero(truth > threshold)[0].tolist())
        monitored = {key for key, _, _ in summary.topk()}
        assert heavy <= monitored

        # Corollary on the reported ranking: any true-top-k whose k-th
        # weight clears the bound must be fully contained.
        order = np.argsort(-truth)
        for k in (1, 3, 5):
            if truth[order[k - 1]] > threshold:
                assert set(order[:k].tolist()) <= monitored

    def test_topk_deterministic_ordering(self):
        summary = SpaceSaving(capacity=4)
        for key, weight in ((3, 5.0), (1, 5.0), (2, 9.0)):
            summary.update(key, weight)
        assert [key for key, _, _ in summary.topk()] == [2, 1, 3]

    def test_eviction_inherits_floor_as_error(self):
        summary = SpaceSaving(capacity=2)
        summary.update(1, 10.0)
        summary.update(2, 4.0)
        summary.update(3, 1.0)  # evicts key 2 (smallest count)
        entries = {key: (count, error) for key, count, error in summary.topk()}
        assert 2 not in entries
        assert entries[3] == (5.0, 4.0)  # floor + weight, floor as error

    def test_sketch_backing_absorbs_updates(self):
        keys, weights, truth = zipf_stream(num_updates=2_000)
        summary = SpaceSaving(capacity=8, sketch=CountMinSketch(width=512))
        summary.update_many(keys, weights)
        assert summary.sketch.total_weight == pytest.approx(
            summary.total_weight
        )
        # Evicted keys stay queryable through the sketch (over-estimate).
        monitored = {key for key, _, _ in summary.topk()}
        evicted = [k for k in np.nonzero(truth)[0] if k not in monitored]
        assert evicted, "test needs at least one evicted key"
        probe = int(evicted[0])
        assert summary.sketch.estimate(probe) >= truth[probe] - 1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            SpaceSaving(capacity=0)
        summary = SpaceSaving(capacity=2)
        with pytest.raises(ConfigError):
            summary.update(1, -1.0)

    def test_rejects_non_finite_weight(self):
        summary = SpaceSaving(capacity=2)
        summary.update(1, 3.0)
        for weight in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                summary.update(2, weight)
        assert summary.topk() == [(1, 3.0, 0.0)]
        assert summary.total_weight == 3.0

    def test_bad_batch_leaves_summary_and_sketch_unchanged(self):
        keys, weights, _ = zipf_stream(num_updates=500)
        summary = SpaceSaving(capacity=8, sketch=CountMinSketch(width=64))
        summary.update_many(keys, weights)
        before = (
            summary.topk(),
            dict(summary._errors),
            summary.total_weight,
            summary.sketch._table.copy(),
            summary.sketch.total_weight,
        )
        bad_batches = (
            (keys[:5], weights[:4]),  # shape mismatch
            (keys[:3], np.array([1.0, np.nan, 2.0])),
            (keys[:3], np.array([1.0, np.inf, 2.0])),
            (keys[:3], np.array([1.0, -0.5, 2.0])),
        )
        for bad_keys, bad_weights in bad_batches:
            with pytest.raises(ConfigError):
                summary.update_many(bad_keys, bad_weights)
            assert summary.topk() == before[0]
            assert summary._errors == before[1]
            assert summary.total_weight == before[2]
            assert np.array_equal(summary.sketch._table, before[3])
            assert summary.sketch.total_weight == before[4]

    def test_min_count_is_zero_while_slots_are_free(self):
        summary = SpaceSaving(capacity=3)
        summary.update(1, 5.0)
        summary.update(2, 7.0)
        assert summary.min_count == 0.0
        summary.update(3, 6.0)
        assert summary.min_count == 5.0
        summary.update(1, 4.0)  # key 1 now 9.0; its 5.0 pair is stale
        assert summary.min_count == 6.0

    def test_heap_stays_bounded_under_repeated_hits(self):
        """Increments to monitored keys push pairs without evicting;
        compaction keeps the heap O(capacity) anyway."""
        capacity = 16
        bound = 4 * capacity + 64
        summary = SpaceSaving(capacity=capacity)
        summary.update_many(
            np.arange(capacity, dtype=np.int64), np.ones(capacity)
        )
        longest = 0
        for step in range(200_000):
            summary.update(step % capacity, 1.0)
            longest = max(longest, len(summary._heap))
        assert len(summary) == capacity
        assert longest <= bound
        assert len(summary._heap) <= bound
        assert summary.min_count == 1.0 + 200_000 / capacity


class TestCountMinRejections:
    def test_bad_batch_leaves_table_unchanged(self):
        sketch = CountMinSketch(width=64)
        keys = np.arange(4, dtype=np.int64)
        sketch.update_many(keys, np.ones(4))
        table = sketch._table.copy()
        for weights in (
            np.array([1.0, -1.0, 1.0, 1.0]),
            np.array([1.0, np.nan, 1.0, 1.0]),
        ):
            with pytest.raises(ConfigError):
                sketch.update_many(keys, weights)
        assert np.array_equal(sketch._table, table)
        assert sketch.total_weight == 4.0
