"""The least-loaded read greedy against its numpy oracle, bit for bit.

``_least_loaded`` ranks each segment's copies over Python floats; the
oracle in ``tests/oracles/redundancy.py`` does it with ``np.lexsort``
and fancy-indexed load updates.  The weights must be equal exactly, on
heavy-tailed masses and on inputs built to tie.
"""

import numpy as np
import pytest

from repro.cluster.redundancy.config import RedundancyConfig
from repro.cluster.redundancy.placement import ring_table
from repro.cluster.redundancy.policies import (
    PolicyInputs,
    _least_loaded,
    assign_read_weights,
)
from tests.oracles.redundancy import least_loaded as oracle

SPECS = ("r=2", "r=3", "ec=2+1")


def _inputs(spec, primaries, read_mass, write_mass, num_bs):
    config = RedundancyConfig.parse(spec)
    return PolicyInputs(
        table=ring_table(np.asarray(primaries), config.width, num_bs),
        seg_read_mass=np.asarray(read_mass, dtype=np.float64),
        seg_write_mass=np.asarray(write_mass, dtype=np.float64),
        num_block_servers=num_bs,
        cap=config.read_weight_cap,
        read_fanout=config.read_fanout,
    )


def _assert_same(inputs):
    got = _least_loaded(inputs)
    want = oracle(inputs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", range(6))
def test_heavy_tailed_masses(spec, seed):
    rng = np.random.default_rng(seed)
    num_bs = int(rng.integers(3, 12))
    num_segments = int(rng.integers(1, 200))
    inputs = _inputs(
        spec,
        rng.integers(0, num_bs, size=num_segments),
        rng.gamma(0.4, 2e9, size=num_segments),
        rng.gamma(0.4, 4e9, size=num_segments),
        num_bs,
    )
    _assert_same(inputs)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", range(4))
def test_ties(spec, seed):
    # Few distinct integer masses and no write load: equal BS loads and
    # equal segment masses everywhere, so slot order decides.
    rng = np.random.default_rng(100 + seed)
    num_bs = 4
    num_segments = 40
    inputs = _inputs(
        spec,
        rng.integers(0, num_bs, size=num_segments),
        rng.integers(0, 3, size=num_segments).astype(float),
        np.zeros(num_segments) if seed % 2 else np.ones(num_segments),
        num_bs,
    )
    _assert_same(inputs)


def test_all_zero_masses_keep_the_first_slots():
    inputs = _inputs("ec=2+1", [0, 1, 2], [0.0] * 3, [0.0] * 3, 3)
    _assert_same(inputs)
    np.testing.assert_array_equal(
        _least_loaded(inputs)[:, :2], np.full((3, 2), 0.5)
    )


def test_registry_runs_the_python_greedy():
    config = RedundancyConfig.parse("r=3")
    rng = np.random.default_rng(9)
    primaries = rng.integers(0, 6, size=30)
    read_mass = rng.gamma(0.4, 2e9, size=30)
    write_mass = rng.gamma(0.4, 4e9, size=30)
    table = ring_table(primaries, config.width, 6)
    got = assign_read_weights(
        "least_loaded", config, table, read_mass, write_mass, 6
    )
    want = oracle(_inputs("r=3", primaries, read_mass, write_mass, 6))
    assert got.tobytes() == want.tobytes()


def test_no_segments():
    inputs = _inputs("r=2", [], [], [], 4)
    assert _least_loaded(inputs).shape == (0, 2)
    _assert_same(inputs)
