"""Heap-evicting Space-Saving against its linear-scan oracle, bit for bit.

:class:`repro.live.SpaceSaving` finds its eviction victim through a
lazily invalidated ``(count, key)`` min-heap;
``tests/oracles/space_saving.py`` scans every monitored entry.  Both
must hold the same summary — ranking, counts, error bounds, total
weight, threshold and sketch table, float bits included — after every
single update, on generated operation mixes and on a live replay.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import CountMinSketch, LiveConfig, SpaceSaving, build_pipeline
from tests.oracles.space_saving import ReferenceSpaceSaving


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _state(summary):
    """Everything observable about a summary, floats as exact bits."""
    state = {
        "topk": [tuple(map(_bits, entry)) for entry in summary.topk()],
        "errors": {key: _bits(e) for key, e in summary._errors.items()},
        "total_weight": _bits(summary.total_weight),
        "min_count": _bits(summary.min_count),
    }
    if summary.sketch is not None:
        state["sketch"] = summary.sketch._table.tobytes()
        state["sketch_total"] = _bits(summary.sketch.total_weight)
    return state


def _pair(capacity, with_sketch):
    def sketch():
        return CountMinSketch(width=64, depth=3) if with_sketch else None

    return (
        SpaceSaving(capacity, sketch=sketch()),
        ReferenceSpaceSaving(capacity, sketch=sketch()),
    )


@st.composite
def operations(draw):
    """A capacity plus a mix of single and batched updates.

    Keys come from a range about twice the capacity, so entries are
    evicted and later re-admitted; small integer weights (zero
    included) make count ties common, which exercises the key
    tie-break.
    """
    capacity = draw(st.sampled_from((1, 2, 4, 64)))
    keys = st.integers(0, 2 * capacity + 3)
    weights = st.integers(0, 4).map(float)
    single = st.tuples(st.just("update"), keys, weights)
    batch = st.tuples(
        st.just("update_many"),
        st.lists(st.tuples(keys, weights), max_size=40),
    )
    ops = draw(st.lists(st.one_of(single, batch), min_size=1, max_size=60))
    return capacity, ops


@settings(max_examples=150, deadline=None)
@given(operations(), st.booleans())
def test_matches_the_linear_scan_after_every_update(case, with_sketch):
    capacity, ops = case
    fast, reference = _pair(capacity, with_sketch)
    for op in ops:
        if op[0] == "update":
            _, key, weight = op
            fast.update(key, weight)
            reference.update(key, weight)
        else:
            pairs = op[1]
            keys = np.array([k for k, _ in pairs], dtype=np.int64)
            weights = np.array([w for _, w in pairs])
            fast.update_many(keys, weights)
            reference.update_many(keys, weights)
        assert _state(fast) == _state(reference)
        assert len(fast._heap) <= 4 * capacity + 64


def test_matches_the_linear_scan_on_a_live_replay():
    """A reduced large-scale replay: 2048-event batches, heavy churn."""
    config = LiveConfig(
        scale="large", duration_seconds=120, batch_events=2048, rate=None
    )
    events = build_pipeline(config).injector.events
    fast, reference = _pair(64, with_sketch=True)
    batches = 0
    for batch in events.iter_slices(config.batch_events):
        fast.update_many(batch.segment_id, batch.size_bytes)
        reference.update_many(batch.segment_id, batch.size_bytes)
        assert _state(fast) == _state(reference)
        batches += 1
    assert batches > 100
