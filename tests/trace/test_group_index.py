"""The cached group index behind ``TraceDataset.for_vd`` / ``for_node``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.dataset import TraceDataset


def _dataset(vd_ids, node_ids, seed=0, sampling_rate=0.25) -> TraceDataset:
    """Random rows with the given (unsorted) keys."""
    rng = np.random.default_rng(seed)
    n = len(vd_ids)
    columns = {
        name: rng.integers(0, 1 << 40, n) for name in TraceDataset.INT_FIELDS
    }
    columns.update(
        {name: rng.random(n) * 1e3 for name in TraceDataset.FLOAT_FIELDS}
    )
    columns["vd_id"] = np.asarray(vd_ids, dtype=np.int64)
    columns["compute_node_id"] = np.asarray(node_ids, dtype=np.int64)
    return TraceDataset(sampling_rate=sampling_rate, **columns)


def _assert_same(got: TraceDataset, want: TraceDataset) -> None:
    assert type(got) is type(want)
    assert got.sampling_rate == want.sampling_rate
    assert len(got) == len(want)
    for name, column in want.columns().items():
        assert getattr(got, name).dtype == column.dtype, name
        np.testing.assert_array_equal(getattr(got, name), column)


keys = st.lists(st.integers(0, 12), max_size=80)


class TestGroupIndex:
    @settings(max_examples=80, deadline=None)
    @given(vd_ids=keys, seed=st.integers(0, 2**16), probe=st.integers(-2, 15))
    def test_for_vd_equals_the_mask(self, vd_ids, seed, probe):
        traces = _dataset(vd_ids, [0] * len(vd_ids), seed)
        for key in sorted(set(vd_ids)) + [probe]:
            _assert_same(traces.for_vd(key), traces.where(traces.vd_id == key))

    @settings(max_examples=80, deadline=None)
    @given(
        node_ids=keys, seed=st.integers(0, 2**16), probe=st.integers(-2, 15)
    )
    def test_for_node_equals_the_mask(self, node_ids, seed, probe):
        traces = _dataset([0] * len(node_ids), node_ids, seed)
        for key in sorted(set(node_ids)) + [probe]:
            _assert_same(
                traces.for_node(key),
                traces.where(traces.compute_node_id == key),
            )

    def test_rows_keep_their_original_order(self):
        traces = _dataset([3, 1, 3, 2, 1, 3], [0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(
            traces.for_vd(3).trace_id, traces.trace_id[[0, 2, 5]]
        )
        np.testing.assert_array_equal(
            traces.for_node(1).trace_id, traces.trace_id[[1, 3, 5]]
        )

    def test_absent_id_is_an_empty_typed_table(self):
        traces = _dataset([4, 4, 9], [1, 1, 2])
        for empty in (traces.for_vd(5), traces.for_vd(-1), traces.for_node(7)):
            _assert_same(empty, traces.where(np.zeros(3, dtype=bool)))

    def test_empty_dataset(self):
        traces = _dataset([], [])
        _assert_same(traces.for_vd(0), traces)
        _assert_same(traces.for_node(0), traces)

    def test_index_is_built_once_per_key(self, monkeypatch):
        traces = _dataset([2, 0, 1, 2, 0], [1, 0, 1, 1, 0])
        calls = []
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        for vd in (0, 1, 2, 3, 2):
            traces.for_vd(vd)
        assert len(calls) == 1
        for node in (0, 1, 1):
            traces.for_node(node)
        assert len(calls) == 2

    def test_index_is_not_pickled(self):
        import pickle

        traces = _dataset([2, 0, 1], [0, 0, 0])
        traces.for_vd(2)
        clone = pickle.loads(pickle.dumps(traces))
        assert "_groups" not in vars(clone)
        _assert_same(clone.for_vd(2), traces.for_vd(2))

    @pytest.mark.parametrize("vd", [0, 1])
    def test_slices_are_copies(self, vd):
        traces = _dataset([0, 1, 0], [0, 0, 0])
        part = traces.for_vd(vd)
        part.size_bytes[:] = -1
        assert (traces.size_bytes >= 0).all()
