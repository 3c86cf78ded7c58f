"""Per-VD traffic generation: second-granularity series and per-IO draws.

The generator works at VM granularity first — a VM's read and write
intensities are independent heavy-tailed draws from its application profile
(read heavier-tailed than write, reproducing Observation 2) — then splits
each VM's traffic over its VDs with a skewed Dirichlet (the paper's
CoV_vm2vd ~ 0.97), each VD's traffic over its QPs (CoV_vd2qp, writes more
skewed than reads), and each VD's traffic over its segments via the LBA
hotspot model.  Temporal structure comes from per-direction ON/OFF burst
processes riding a diurnal profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.obs.runtime import get_telemetry
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.util.units import MiB
from repro.workload.apps import APPLICATION_PROFILES, ApplicationProfile
from repro.workload.burst import OnOffBurstModel, diurnal_profile
from repro.workload.fleet import Fleet, VdInfo
from repro.workload.lba import HotspotLbaModel, LbaModelConfig, PAGE_BYTES
from repro.workload.samplers import lognormal_heavy, skewed_weights

_MIN_IO_BYTES = 512
_MAX_IO_BYTES = 4 * MiB


@dataclass
class VdTraffic:
    """Everything the simulator needs about one VD's offered load.

    Time series are bytes/s and IO/s at one-second granularity; weight
    vectors sum to 1 over the VD's QPs / segments per direction.
    """

    vd_id: int
    read_bytes: np.ndarray
    write_bytes: np.ndarray
    read_iops: np.ndarray
    write_iops: np.ndarray
    qp_read_weights: np.ndarray
    qp_write_weights: np.ndarray
    segment_read_weights: np.ndarray
    segment_write_weights: np.ndarray
    lba_model: HotspotLbaModel
    hot_fraction_series: np.ndarray
    mean_read_size_bytes: float
    mean_write_size_bytes: float

    @property
    def total_bytes(self) -> float:
        return float(self.read_bytes.sum() + self.write_bytes.sum())


class WorkloadGenerator:
    """Generates :class:`VdTraffic` for every VD of a fleet, deterministically.

    All VDs of one VM share the VM-level intensity draw, so per-VM skew
    statistics are meaningful.  Results are cached; ``generate_all`` is
    idempotent.
    """

    def __init__(
        self,
        fleet: Fleet,
        duration_seconds: int,
        rngs: RngFactory,
        diurnal_amplitude: float = 0.3,
    ):
        if duration_seconds <= 0:
            raise ConfigError(
                f"duration_seconds must be positive, got {duration_seconds}"
            )
        self.fleet = fleet
        self.duration_seconds = int(duration_seconds)
        self._rngs = rngs.child(f"workload/dc{fleet.config.dc_id}")
        self._diurnal = diurnal_profile(
            self.duration_seconds, amplitude=diurnal_amplitude
        )
        self._cache: Dict[int, VdTraffic] = {}
        self._vm_splits: Dict[int, "tuple[np.ndarray, np.ndarray, float, float]"] = {}

    # -- VM-level draws ------------------------------------------------------

    def _vm_split(self, vm_id: int) -> "tuple[np.ndarray, np.ndarray, float, float]":
        """(read weights over VDs, write weights, read bps, write bps)."""
        if vm_id in self._vm_splits:
            return self._vm_splits[vm_id]
        vm = self.fleet.vms[vm_id]
        profile = APPLICATION_PROFILES[vm.application]
        rng = self._rngs.get(f"vm/{vm_id}")
        vds = self.fleet.vds_of_vm(vm_id)
        write_bps = float(
            lognormal_heavy(rng, profile.intensity_median_bps, profile.intensity_sigma)
        )
        # The read draw has a heavier tail (sigma + extra); compensate the
        # median by the lognormal mean factor exp(sigma^2 / 2) difference so
        # the *mean* read/write ratio still matches the profile's
        # read_fraction — the fleet stays write-dominant in total (Table 2)
        # while reads stay more skewed (Observation 2).
        sigma_w = profile.intensity_sigma
        sigma_r = profile.intensity_sigma + profile.read_sigma_extra
        mix = max(profile.read_fraction / max(1e-9, 1.0 - profile.read_fraction), 1e-3)
        read_median = (
            profile.intensity_median_bps
            * mix
            * float(np.exp((sigma_w**2 - sigma_r**2) / 2.0))
        )
        read_bps = float(lognormal_heavy(rng, read_median, sigma_r))
        n = max(1, len(vds))
        # Read traffic concentrates on fewer VDs than write traffic (the
        # paper's WT-CoV and CoV_vm2vd are worse for reads), so the read
        # split uses a tighter Dirichlet.
        read_weights = skewed_weights(rng, n, profile.vd_concentration * 0.35)
        write_weights = skewed_weights(rng, n, profile.vd_concentration)
        result = (read_weights, write_weights, read_bps, write_bps)
        self._vm_splits[vm_id] = result
        return result

    # -- VD-level generation ---------------------------------------------------

    def _lba_model(
        self, vd: VdInfo, profile: ApplicationProfile, rng: np.random.Generator
    ) -> HotspotLbaModel:
        hot_bytes = min(
            max(profile.hot_block_mib * MiB, PAGE_BYTES), vd.capacity_bytes
        )
        config = LbaModelConfig(
            capacity_bytes=vd.capacity_bytes,
            hot_block_bytes=hot_bytes,
            hot_access_fraction=profile.hot_access_fraction,
            hot_write_bias=profile.hot_write_bias,
            sequential_fraction=profile.sequential_fraction,
        )
        return HotspotLbaModel(config, rng)

    def generate_vd(self, vd_id: int) -> VdTraffic:
        """Build (or return the cached) traffic description for one VD."""
        if vd_id in self._cache:
            return self._cache[vd_id]
        vd = self.fleet.vds[vd_id]
        profile = self.fleet.profile_of_vd(vd_id)
        rng = self._rngs.get(f"vd/{vd_id}")

        read_weights, write_weights, vm_read_bps, vm_write_bps = self._vm_split(
            vd.vm_id
        )
        siblings = self.fleet.vds_of_vm(vd.vm_id)
        index_in_vm = next(
            i for i, sib in enumerate(siblings) if sib.vd_id == vd_id
        )
        read_bps = vm_read_bps * float(read_weights[index_in_vm])
        write_bps = vm_write_bps * float(write_weights[index_in_vm])

        t = self.duration_seconds
        read_mult = OnOffBurstModel(profile.read_burst).series(rng, t)
        write_mult = OnOffBurstModel(profile.write_burst).series(rng, t)
        read_bytes = read_bps * read_mult * self._diurnal
        write_bytes = write_bps * write_mult * self._diurnal

        read_size = float(
            np.clip(
                lognormal_heavy(rng, *profile.read_size_bytes),
                _MIN_IO_BYTES,
                _MAX_IO_BYTES,
            )
        )
        write_size = float(
            np.clip(
                lognormal_heavy(rng, *profile.write_size_bytes),
                _MIN_IO_BYTES,
                _MAX_IO_BYTES,
            )
        )
        read_iops = read_bytes / read_size
        write_iops = write_bytes / write_size

        # Writes concentrate on fewer QPs than reads (§4.2: the blk-mq
        # "none" policy pins an IO thread to one queue; write threads are
        # fewer), so the write split uses a smaller concentration.
        nq = vd.num_queue_pairs
        qp_read = skewed_weights(rng, nq, profile.qp_concentration * 2.0)
        qp_write = skewed_weights(rng, nq, profile.qp_concentration)

        lba = self._lba_model(vd, profile, rng)
        seg_rng = self._rngs.get(f"vd/{vd_id}/segments")
        base_weights = lba.segment_weights(
            self.fleet.config.segment_bytes, seg_rng
        )
        seg_read, seg_write = _direction_segment_weights(
            base_weights, lba, self.fleet.config.segment_bytes, profile
        )
        if base_weights.size != vd.num_segments:
            raise ConfigError(
                f"segment weight count {base_weights.size} != "
                f"fleet segment count {vd.num_segments} for vd {vd_id}"
            )

        traffic = VdTraffic(
            vd_id=vd_id,
            read_bytes=read_bytes,
            write_bytes=write_bytes,
            read_iops=read_iops,
            write_iops=write_iops,
            qp_read_weights=qp_read,
            qp_write_weights=qp_write,
            segment_read_weights=seg_read,
            segment_write_weights=seg_write,
            lba_model=lba,
            hot_fraction_series=lba.hot_fraction_series(rng, t),
            mean_read_size_bytes=read_size,
            mean_write_size_bytes=write_size,
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            # First-build only (the cache write below makes repeat calls
            # no-ops), so draw counters stay exact per VD.  All values are
            # integers: counts and series lengths, never float traffic.
            dc = self.fleet.config.dc_id
            app = self.fleet.vms[vd.vm_id].application
            telemetry.counter("workload.vds_generated", dc=dc, app=app).inc()
            telemetry.counter(
                "workload.series_seconds", dc=dc, app=app
            ).inc(2 * t)  # one read + one write series per VD
            telemetry.counter(
                "workload.weight_draws", dc=dc, app=app
            ).inc(nq * 2 + base_weights.size * 2)
        self._cache[vd_id] = traffic
        return traffic

    def iter_batches(self, batch_size: int):
        """Yield ``(start_index, [VdTraffic, ...])`` batches in fleet order,
        releasing each batch's series from the cache before the next one.

        The out-of-core engine spills every yielded batch to its shard
        store, so nothing keeps a reference and peak residency stays at
        one batch of full-duration series.  Every draw comes from the
        same label-keyed streams :meth:`generate_vd` uses, so batched
        generation is bit-identical to :meth:`generate_all` for any
        ``batch_size``.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        vds = self.fleet.vds
        for start in range(0, len(vds), batch_size):
            batch = [
                self.generate_vd(vd.vd_id)
                for vd in vds[start:start + batch_size]
            ]
            yield start, batch
            # Drop the series (the caller has spilled them); keep the
            # small per-VM split tuples so sibling VDs in later batches
            # reuse them without recomputation.
            for tr in batch:
                self._cache.pop(tr.vd_id, None)

    def generate_all(self) -> List[VdTraffic]:
        """Traffic for every VD in the fleet (cached)."""
        telemetry = get_telemetry()
        with telemetry.span(
            "workload.generate_all",
            dc=self.fleet.config.dc_id,
            vds=len(self.fleet.vds),
        ):
            traffic = [self.generate_vd(vd.vd_id) for vd in self.fleet.vds]
        return traffic


#: Segment-weight sharpening exponents per direction.  Reads hit specific
#: hot data and so concentrate on fewer segments than writes, which are
#: smeared by appends and garbage collection; this is what makes the
#: inter-BS read CoV exceed the write CoV (Fig 5(a)) while the balancer
#: only migrates on writes.
_READ_SEGMENT_SHARPEN = 2.0
_WRITE_SEGMENT_SHARPEN = 0.8


def _direction_segment_weights(
    base_weights: np.ndarray,
    lba: HotspotLbaModel,
    segment_bytes: int,
    profile: ApplicationProfile,
) -> "tuple[np.ndarray, np.ndarray]":
    """Split segment weights by direction.

    Reads are a sharpened (more concentrated) version of the base weights
    and writes a flattened one; the hot segment additionally gets a
    boosted share of writes and a discounted share of reads (Fig 6(c):
    hottest blocks are write-dominant).  Both vectors stay normalized.
    """
    read = base_weights**_READ_SEGMENT_SHARPEN
    write = base_weights**_WRITE_SEGMENT_SHARPEN
    read /= read.sum()
    write /= write.sum()
    hot_start, hot_end = lba.hot_range_bytes
    hot_seg = hot_start // segment_bytes
    bias = profile.hot_write_bias
    if hot_seg < base_weights.size and bias > 0:
        write[hot_seg] *= 1.0 + bias
        read[hot_seg] *= 1.0 - bias
    return read / read.sum(), write / write.sum()
