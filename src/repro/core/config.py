"""Study-level configuration: fleet sizes per DC and experiment knobs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.redundancy import READ_POLICY_NAMES, RedundancyConfig
from repro.cluster.simulator import SimulationConfig
from repro.faults.plan import FaultPlan
from repro.util.errors import ConfigError
from repro.util.units import MiB
from repro.workload.fleet import FleetConfig


def _default_dcs() -> List[FleetConfig]:
    """Three data centers with distinct skew mixes, mirroring Table 3.

    DC-1 is database/middleware heavy, DC-2 is dominated by steadier
    BigData traffic (the least-skewed DC in the paper), DC-3 is
    Docker/WebApp heavy (the most read-skewed).
    """
    return [
        FleetConfig(
            dc_id=0,
            num_users=12,
            num_vms=48,
            num_compute_nodes=12,
            num_storage_nodes=8,
            user_zipf_alpha=1.4,
        ),
        FleetConfig(
            dc_id=1,
            num_users=12,
            num_vms=48,
            num_compute_nodes=12,
            num_storage_nodes=8,
            user_zipf_alpha=0.9,
            app_weights={
                "BigData": 0.5,
                "Middleware": 0.2,
                "Database": 0.2,
                "WebApp": 0.1,
            },
        ),
        FleetConfig(
            dc_id=2,
            num_users=12,
            num_vms=48,
            num_compute_nodes=12,
            num_storage_nodes=8,
            user_zipf_alpha=1.8,
            app_weights={
                "Docker": 0.4,
                "WebApp": 0.3,
                "Database": 0.2,
                "FileSystem": 0.1,
            },
        ),
    ]


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce the paper's evaluation once."""

    seed: int = 7
    duration_seconds: int = 600
    trace_sampling_rate: float = 1.0 / 20.0
    #: Metric-table recording thresholds (None = the simulator defaults).
    #: Large scales raise them: at ``xlarge`` the default per-cell floor
    #: would record hundreds of millions of rows per DC.
    min_record_bytes: Optional[float] = None
    min_record_iops: Optional[float] = None
    dc_configs: List[FleetConfig] = field(default_factory=_default_dcs)
    #: Optional deterministic fault schedule applied to every DC build
    #: (per-DC sub-plans via :meth:`FaultPlan.for_dc`).  None or an empty
    #: plan reproduces the fault-free study bit-for-bit.
    fault_plan: Optional[FaultPlan] = None
    #: Redundancy spec ("r=3" / "ec=4+2") applied to every DC.  None (or
    #: "r=1") reproduces the single-copy study bit-for-bit.
    redundancy: Optional[str] = None
    #: Read-assignment policy over a segment's copies: primary |
    #: least_loaded | power_of_two | water_filling.
    read_policy: str = "primary"

    # §4 experiment knobs
    wt_cov_windows: Tuple[int, ...] = (60, 300, 600)
    rebind_period_seconds: float = 0.010

    # §5 experiment knobs
    lending_rates: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    lending_period_seconds: int = 60
    cap_headroom_median: float = 4.0

    # §6 experiment knobs
    balancer_period_seconds: int = 30
    migration_window_scales: Tuple[int, ...] = (15, 60, 300)
    prediction_period_seconds: int = 10
    prediction_warmup_periods: int = 10
    # The paper retrains its ML models every 200 of 1440 periods; the
    # same staleness ratio at simulation scale.
    prediction_epoch_periods: int = 30

    # §7 experiment knobs
    cache_block_bytes: Tuple[int, ...] = (64 * MiB, 512 * MiB, 2048 * MiB)
    cache_min_traces: int = 500
    hot_rate_window_seconds: float = 60.0

    def __post_init__(self) -> None:
        if not self.dc_configs:
            raise ConfigError("at least one data center is required")
        if self.duration_seconds <= 0:
            raise ConfigError("duration_seconds must be positive")
        if not 0.0 < self.trace_sampling_rate <= 1.0:
            raise ConfigError("trace_sampling_rate must be in (0, 1]")
        ids = [dc.dc_id for dc in self.dc_configs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate dc_ids: {ids}")
        if not self.lending_rates or any(
            not 0.0 < p < 1.0 for p in self.lending_rates
        ):
            raise ConfigError("lending_rates must lie in (0, 1)")
        if not self.cache_block_bytes or any(
            b <= 0 for b in self.cache_block_bytes
        ):
            raise ConfigError("cache_block_bytes must be positive")
        if self.cache_min_traces < 1:
            raise ConfigError("cache_min_traces must be >= 1")
        for name in ("min_record_bytes", "min_record_iops"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.redundancy is not None:
            RedundancyConfig.parse(self.redundancy)  # raises on bad spec
        if self.read_policy not in READ_POLICY_NAMES:
            raise ConfigError(
                f"unknown read policy {self.read_policy!r}; choose one of "
                f"{', '.join(READ_POLICY_NAMES)}"
            )

    def simulation_config(self) -> SimulationConfig:
        overrides: Dict[str, Any] = {}
        if self.min_record_bytes is not None:
            overrides["min_record_bytes"] = self.min_record_bytes
        if self.min_record_iops is not None:
            overrides["min_record_iops"] = self.min_record_iops
        return SimulationConfig(
            duration_seconds=self.duration_seconds,
            trace_sampling_rate=self.trace_sampling_rate,
            redundancy=self.redundancy,
            read_policy=self.read_policy,
            **overrides,
        )

    # -- presets ------------------------------------------------------------

    @classmethod
    def scale(
        cls, name: str, *, seed: int = 7, **overrides: Any
    ) -> "StudyConfig":
        """Build a preset-scale config with keyword-only overrides.

        ``name`` is one of :data:`SCALE_NAMES`:

        - ``"small"`` — laptop scale: ~2 minutes to build and run
          everything;
        - ``"medium"`` — the benchmark default: enough periods for the
          §6 experiments;
        - ``"large"`` — longer and larger for tighter statistics (runs
          streamed by default on the CLI);
        - ``"xlarge"`` — the raw-speed tier: >=100k VMs across the three
          DCs (only runs streamed; pair with ``--max-rss-mb``).  Trace
          sampling and the metric-recording thresholds are scaled so
          outputs stay tractable.

        Any :class:`StudyConfig` field can be overridden::

            StudyConfig.scale("small", seed=11, duration_seconds=200)
            StudyConfig.scale("medium", lending_rates=(0.3, 0.6))

        Unknown override names raise :class:`ConfigError` (catching the
        typo at construction, not deep inside a sweep).
        """
        factory = _SCALE_PRESETS.get(name)
        if factory is None:
            raise ConfigError(
                f"unknown scale {name!r}; choose from {SCALE_NAMES}"
            )
        params = factory()
        params["seed"] = seed
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(
                f"unknown StudyConfig override(s): {sorted(unknown)}"
            )
        params.update(overrides)
        return cls(**params)


def _small_params() -> "Dict[str, Any]":
    dcs = [
        replace(
            dc,
            num_users=8,
            num_vms=28,
            num_compute_nodes=8,
            num_storage_nodes=6,
        )
        for dc in _default_dcs()
    ]
    return {"duration_seconds": 400, "dc_configs": dcs}


def _medium_params() -> "Dict[str, Any]":
    return {
        "duration_seconds": 1200,
        "wt_cov_windows": (60, 300, 1200),
    }


def _large_params() -> "Dict[str, Any]":
    dcs = [
        replace(
            dc,
            num_users=24,
            num_vms=120,
            num_compute_nodes=24,
            num_storage_nodes=12,
        )
        for dc in _default_dcs()
    ]
    return {
        "duration_seconds": 1800,
        "dc_configs": dcs,
        "wt_cov_windows": (60, 600, 1800),
    }


def _xlarge_params() -> "Dict[str, Any]":
    """The raw-speed tier: ~108k VMs (3 x 36000) — ROADMAP item 5.

    Node counts keep the default ~10 VMs/node density; trace sampling
    and the metric-recording floors scale with fleet size so pass-2 and
    the metric tables stay bounded while pass-1 still aggregates every
    (entity, second) cell.  Only runs streamed (the CLI enforces it).
    """
    dcs = [
        replace(
            dc,
            num_users=2400,
            num_vms=36_000,
            num_compute_nodes=3600,
            num_storage_nodes=1200,
        )
        for dc in _default_dcs()
    ]
    return {
        "duration_seconds": 600,
        "dc_configs": dcs,
        "trace_sampling_rate": 1.0 / 2000.0,
        "min_record_bytes": 64.0 * MiB,
        "min_record_iops": 4096.0,
        "wt_cov_windows": (60, 300, 600),
    }


_SCALE_PRESETS = {
    "small": _small_params,
    "medium": _medium_params,
    "large": _large_params,
    "xlarge": _xlarge_params,
}

#: The preset names accepted by :meth:`StudyConfig.scale` (and the CLI's
#: ``--scale`` flag).
SCALE_NAMES = tuple(_SCALE_PRESETS)
