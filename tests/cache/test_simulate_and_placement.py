"""Tests for trace-driven cache simulation and the placement study."""

import numpy as np
import pytest

from repro.cache import (
    CachePlacementConfig,
    cacheable_vd_counts,
    latency_gain,
    simulate_vd_caches,
)
from repro.cache.placement import find_cacheable_blocks
from repro.cluster import EBSSimulator, LatencyModel, SimulationConfig
from repro.util import ConfigError
from repro.util.rng import RngFactory, spawn_rng
from repro.util.units import MiB

from tests.cache.test_hotspot import traces_with_hotspot
from tests.oracles.cache import FifoCache, replay_trace


@pytest.fixture(scope="module")
def sim(small_fleet):
    config = SimulationConfig(
        duration_seconds=150, trace_sampling_rate=1.0 / 5.0
    )
    return EBSSimulator(small_fleet, config, RngFactory(21)).run()


class TestReplayTrace:
    def test_empty_trace(self):
        traces = traces_with_hotspot().where(
            np.zeros(100, dtype=bool)
        )
        assert replay_trace(FifoCache(4), traces) == 0.0

    def test_replays_in_time_order(self):
        traces = traces_with_hotspot(n_hot=50, n_cold=0)
        ratio = replay_trace(FifoCache(1024), traces)
        # All hot IOs share one page: everything after the first hits.
        assert ratio == pytest.approx(49 / 50)


class TestSimulateVdCache:
    def test_returns_three_policies(self):
        traces = traces_with_hotspot()
        out = simulate_vd_caches(traces, 0, (MiB,), 100 * MiB)[MiB]
        assert set(out) == {"fifo", "lru", "frozen"}
        for value in out.values():
            assert 0.0 <= value <= 1.0

    def test_none_for_untraced_vd(self):
        traces = traces_with_hotspot()
        assert simulate_vd_caches(traces, 99, (MiB,), 100 * MiB) is None

    def test_frozen_anchored_at_hot_block(self):
        traces = traces_with_hotspot(n_hot=90, n_cold=10)
        out = simulate_vd_caches(traces, 0, (MiB,), 100 * MiB)[MiB]
        # 90% of accesses land in the frozen range.
        assert out["frozen"] == pytest.approx(0.9)


class TestPlacement:
    def test_find_cacheable_blocks(self, sim):
        config = CachePlacementConfig(
            block_bytes=512 * MiB, access_rate_threshold=0.25
        )
        blocks = find_cacheable_blocks(sim.traces, sim.fleet, config)
        for vd_id, block in blocks.items():
            assert block.access_rate >= 0.25
            assert block.vd_id == vd_id

    def test_latency_gain_bounds(self, sim):
        model = LatencyModel()
        config = CachePlacementConfig(block_bytes=512 * MiB)
        for location in ("compute_node", "block_server"):
            gains = latency_gain(
                sim.traces,
                sim.fleet,
                location,
                model,
                spawn_rng(1, "lg"),
                config,
                direction="write",
            )
            if gains is not None:
                for value in gains.values():
                    assert 0.0 < value <= 1.5

    def test_cn_gain_beats_bs_gain_at_median(self, sim):
        model = LatencyModel()
        config = CachePlacementConfig(block_bytes=2048 * MiB)
        cn = latency_gain(
            sim.traces, sim.fleet, "compute_node", model,
            spawn_rng(2, "lg"), config, direction="write",
        )
        bs = latency_gain(
            sim.traces, sim.fleet, "block_server", model,
            spawn_rng(2, "lg"), config, direction="write",
        )
        if cn is not None and bs is not None:
            assert cn[50.0] <= bs[50.0] + 0.05

    def test_cacheable_counts_cover_all_nodes(self, sim):
        config = CachePlacementConfig(block_bytes=512 * MiB)
        placement = sim.storage.placement.primary_mapping()
        cn = cacheable_vd_counts(
            sim.traces, sim.fleet, "compute_node", placement, config
        )
        bs = cacheable_vd_counts(
            sim.traces, sim.fleet, "block_server", placement, config
        )
        assert len(cn) == sim.fleet.config.num_compute_nodes
        assert len(bs) == sim.fleet.config.num_block_servers
        # Same cacheable VDs counted in both views.
        assert sum(cn) == sum(bs)

    def test_rejects_bad_location(self, sim):
        with pytest.raises(ConfigError):
            cacheable_vd_counts(
                sim.traces, sim.fleet, "switch",
                sim.storage.placement.primary_mapping(),
            )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CachePlacementConfig(block_bytes=0)
        with pytest.raises(ConfigError):
            CachePlacementConfig(access_rate_threshold=1.0)
