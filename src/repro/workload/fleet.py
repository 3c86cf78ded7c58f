"""The EBS entity hierarchy: users -> VMs -> VDs -> QPs, and segments -> BSs.

A :class:`Fleet` describes one data center (the paper's Table 3 compares
three DCs; each gets its own fleet built with its own config/seed):

- users own heavy-tailed numbers of VMs (the paper's largest tenant owns
  ~10k VMs), assigned via Zipf weights;
- VMs run one of the six application categories and are placed on compute
  nodes, a fraction of which are bare-metal (single-VM) nodes — the paper's
  Type I skewness source;
- VDs get a capacity from the category's menu, 1-8 queue pairs tied to the
  subscription size, and throughput/IOPS caps derived from capacity;
- each VD's address space is striped into fixed-size segments assigned
  round-robin (with a random start) across the BlockServers, so segments of
  one VD land on different BSs as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trace.records import VdSpec, VmSpec
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.util.units import GiB, MiB
from repro.workload.apps import APPLICATION_PROFILES, ApplicationProfile
from repro.workload.samplers import zipf_weights


@dataclass(frozen=True)
class FleetConfig:
    """Sizing and skew knobs for one data center's fleet."""

    dc_id: int = 0
    num_users: int = 20
    num_vms: int = 60
    num_compute_nodes: int = 16
    workers_per_node: int = 4
    bare_metal_fraction: float = 0.15
    num_storage_nodes: int = 12
    block_servers_per_node: int = 1
    segment_bytes: int = 32 * GiB
    user_zipf_alpha: float = 1.4
    app_weights: "Dict[str, float] | None" = None

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_vms <= 0:
            raise ConfigError("num_users and num_vms must be positive")
        if self.num_compute_nodes <= 0 or self.num_storage_nodes <= 0:
            raise ConfigError("node counts must be positive")
        if self.workers_per_node <= 0 or self.block_servers_per_node <= 0:
            raise ConfigError("per-node worker/BS counts must be positive")
        if not 0.0 <= self.bare_metal_fraction <= 1.0:
            raise ConfigError("bare_metal_fraction must be in [0, 1]")
        if self.segment_bytes < MiB:
            raise ConfigError("segment_bytes must be at least 1 MiB")
        if self.user_zipf_alpha < 0:
            raise ConfigError("user_zipf_alpha must be non-negative")
        if self.app_weights is not None:
            unknown = set(self.app_weights) - set(APPLICATION_PROFILES)
            if unknown:
                raise ConfigError(f"unknown applications: {sorted(unknown)}")
            if not all(w >= 0 for w in self.app_weights.values()):
                raise ConfigError("app weights must be non-negative")
            if sum(self.app_weights.values()) <= 0:
                raise ConfigError("app weights must not all be zero")

    @property
    def num_block_servers(self) -> int:
        return self.num_storage_nodes * self.block_servers_per_node


@dataclass(frozen=True)
class VmInfo:
    vm_id: int
    user_id: int
    compute_node_id: int
    application: str


@dataclass(frozen=True)
class VdInfo:
    vd_id: int
    vm_id: int
    user_id: int
    capacity_bytes: int
    num_queue_pairs: int
    throughput_cap_bps: float
    iops_cap: float
    first_qp_id: int
    first_segment_id: int
    num_segments: int

    @property
    def qp_ids(self) -> "range":
        return range(self.first_qp_id, self.first_qp_id + self.num_queue_pairs)

    @property
    def segment_ids(self) -> "range":
        return range(
            self.first_segment_id, self.first_segment_id + self.num_segments
        )


@dataclass(frozen=True)
class QueuePairInfo:
    qp_id: int
    vd_id: int
    vm_id: int
    compute_node_id: int
    index_in_vd: int


@dataclass(frozen=True)
class SegmentInfo:
    segment_id: int
    vd_id: int
    index_in_vd: int
    block_server_id: int
    storage_node_id: int


def _caps_for_capacity(capacity_gib: int) -> Tuple[float, float]:
    """Throughput/IOPS caps from capacity, shaped like cloud tier tables."""
    throughput = min(120.0 + 0.5 * capacity_gib, 350.0) * MiB
    iops = min(1800.0 + 50.0 * capacity_gib, 50_000.0)
    return throughput, iops


def _queue_pairs_for_capacity(capacity_gib: int) -> int:
    """Bigger subscriptions come with more queue pairs (1..8)."""
    if capacity_gib <= 64:
        return 1
    if capacity_gib <= 256:
        return 2
    if capacity_gib <= 1024:
        return 4
    return 8


@dataclass
class _FleetIndexes:
    """Lazy grouping indexes over a built fleet.

    ``counts`` pins the entity list lengths the index was built from, so
    a fleet still under construction (``build_fleet`` appends in place)
    never serves a stale grouping: lookups rebuild when the lists grew.
    """

    counts: Tuple[int, int, int]
    vds_by_vm: Dict[int, List[VdInfo]]
    qps_by_node: Dict[int, List[QueuePairInfo]]


@dataclass
class Fleet:
    """The built hierarchy for one data center."""

    config: FleetConfig
    vms: List[VmInfo] = field(default_factory=list)
    vds: List[VdInfo] = field(default_factory=list)
    queue_pairs: List[QueuePairInfo] = field(default_factory=list)
    segments: List[SegmentInfo] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._indexes: Optional[_FleetIndexes] = None

    def __getstate__(self) -> dict:
        # The grouping index is derived state; shipping it to worker
        # processes would only bloat the pickled payload.
        state = dict(self.__dict__)
        state["_indexes"] = None
        return state

    def _grouped(self) -> _FleetIndexes:
        """Per-VM / per-node groupings, built once in list order.

        The entity lists are already sorted by id, so every grouped list
        preserves ascending id order — lookups are order-identical to
        the linear scans they replace, just O(group) instead of O(N).
        """
        counts = (len(self.vms), len(self.vds), len(self.queue_pairs))
        cached = self._indexes
        if cached is not None and cached.counts == counts:
            return cached
        vds_by_vm: Dict[int, List[VdInfo]] = {}
        for vd in self.vds:
            vds_by_vm.setdefault(vd.vm_id, []).append(vd)
        qps_by_node: Dict[int, List[QueuePairInfo]] = {}
        for qp in self.queue_pairs:
            qps_by_node.setdefault(qp.compute_node_id, []).append(qp)
        built = _FleetIndexes(
            counts=counts,
            vds_by_vm=vds_by_vm,
            qps_by_node=qps_by_node,
        )
        self._indexes = built
        return built

    @property
    def num_users(self) -> int:
        return self.config.num_users

    @property
    def num_wts(self) -> int:
        return self.config.num_compute_nodes * self.config.workers_per_node

    def wt_ids_of_node(self, node_id: int) -> "range":
        per = self.config.workers_per_node
        return range(node_id * per, (node_id + 1) * per)

    def node_of_wt(self, wt_id: int) -> int:
        return wt_id // self.config.workers_per_node

    def vds_of_vm(self, vm_id: int) -> List[VdInfo]:
        return list(self._grouped().vds_by_vm.get(vm_id, ()))

    def qps_of_node(self, node_id: int) -> List[QueuePairInfo]:
        """All queue pairs attached to one compute node, by ascending id."""
        return list(self._grouped().qps_by_node.get(node_id, ()))

    def vm_spec(self, vm_id: int) -> VmSpec:
        vm = self.vms[vm_id]
        return VmSpec(
            vm_id=vm.vm_id,
            user_id=vm.user_id,
            compute_node_id=vm.compute_node_id,
            application=vm.application,
        )

    def vd_spec(self, vd_id: int) -> VdSpec:
        vd = self.vds[vd_id]
        return VdSpec(
            vd_id=vd.vd_id,
            vm_id=vd.vm_id,
            user_id=vd.user_id,
            capacity_bytes=vd.capacity_bytes,
            num_queue_pairs=vd.num_queue_pairs,
            throughput_cap_bps=vd.throughput_cap_bps,
            iops_cap=vd.iops_cap,
        )

    def profile_of_vd(self, vd_id: int) -> ApplicationProfile:
        vm = self.vms[self.vds[vd_id].vm_id]
        return APPLICATION_PROFILES[vm.application]


def build_fleet(config: FleetConfig, rngs: RngFactory) -> Fleet:
    """Build a fleet deterministically from the config and RNG factory."""
    rng = rngs.get(f"fleet/dc{config.dc_id}")
    fleet = Fleet(config=config)

    # --- applications and ownership ------------------------------------
    app_names = sorted(APPLICATION_PROFILES)
    if config.app_weights is not None:
        weights = np.array(
            [config.app_weights.get(name, 0.0) for name in app_names]
        )
    else:
        weights = np.array(
            [APPLICATION_PROFILES[name].population_weight for name in app_names]
        )
    weights = weights / weights.sum()

    user_weights = rng.permutation(
        zipf_weights(config.num_users, config.user_zipf_alpha)
    )
    vm_users = rng.choice(config.num_users, size=config.num_vms, p=user_weights)
    vm_apps = rng.choice(len(app_names), size=config.num_vms, p=weights)

    # --- placement: bare-metal nodes host exactly one VM ----------------
    num_bare = int(round(config.bare_metal_fraction * config.num_compute_nodes))
    num_bare = min(num_bare, config.num_vms, config.num_compute_nodes)
    node_order = rng.permutation(config.num_compute_nodes)
    bare_nodes = set(int(n) for n in node_order[:num_bare])
    shared_nodes = [int(n) for n in node_order[num_bare:]]
    if not shared_nodes and config.num_vms > num_bare:
        raise ConfigError(
            "no shared compute nodes left to host the remaining VMs; "
            "lower bare_metal_fraction or add nodes"
        )

    placements: List[int] = []
    bare_iter = iter(sorted(bare_nodes))
    for vm_index in range(config.num_vms):
        bare_node = next(bare_iter, None)
        if bare_node is not None:
            placements.append(bare_node)
        else:
            placements.append(int(rng.choice(shared_nodes)))

    next_qp = 0
    next_segment = 0
    next_vd = 0
    for vm_id in range(config.num_vms):
        app = app_names[int(vm_apps[vm_id])]
        profile = APPLICATION_PROFILES[app]
        fleet.vms.append(
            VmInfo(
                vm_id=vm_id,
                user_id=int(vm_users[vm_id]),
                compute_node_id=placements[vm_id],
                application=app,
            )
        )
        lo, hi = profile.vd_count_range
        # Geometric-ish preference for few VDs within the allowed range.
        span = hi - lo + 1
        vd_count = lo + int(min(rng.geometric(0.45) - 1, span - 1))
        for __ in range(vd_count):
            capacity_gib = int(rng.choice(profile.capacity_gib_choices))
            capacity_bytes = capacity_gib * GiB
            throughput_cap, iops_cap = _caps_for_capacity(capacity_gib)
            num_qps = _queue_pairs_for_capacity(capacity_gib)
            num_segments = max(
                1, -(-capacity_bytes // config.segment_bytes)
            )  # ceil
            fleet.vds.append(
                VdInfo(
                    vd_id=next_vd,
                    vm_id=vm_id,
                    user_id=int(vm_users[vm_id]),
                    capacity_bytes=capacity_bytes,
                    num_queue_pairs=num_qps,
                    throughput_cap_bps=throughput_cap,
                    iops_cap=iops_cap,
                    first_qp_id=next_qp,
                    first_segment_id=next_segment,
                    num_segments=num_segments,
                )
            )
            for index in range(num_qps):
                fleet.queue_pairs.append(
                    QueuePairInfo(
                        qp_id=next_qp + index,
                        vd_id=next_vd,
                        vm_id=vm_id,
                        compute_node_id=placements[vm_id],
                        index_in_vd=index,
                    )
                )
            # Segments round-robin over BlockServers from a random start so
            # one VD's segments land on distinct BSs.
            start_bs = int(rng.integers(config.num_block_servers))
            for index in range(num_segments):
                bs_id = (start_bs + index) % config.num_block_servers
                fleet.segments.append(
                    SegmentInfo(
                        segment_id=next_segment + index,
                        vd_id=next_vd,
                        index_in_vd=index,
                        block_server_id=bs_id,
                        storage_node_id=bs_id // config.block_servers_per_node,
                    )
                )
            next_qp += num_qps
            next_segment += num_segments
            next_vd += 1

    return fleet
