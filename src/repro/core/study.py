"""The Study: build fleets, simulate each DC, run experiments."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Dict, List, Optional

from repro.cluster.simulator import (
    EBSSimulator,
    SimulationConfig,
    SimulationResult,
    resolve_outputs,
)
from repro.core.config import StudyConfig
from repro.core.report import ExperimentResult
from repro.faults.plan import FaultPlan
from repro.obs.runtime import get_telemetry, peak_rss_bytes
from repro.util.errors import ConfigError, SimulationError
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet


@dataclass(frozen=True)
class BuildInputs:
    """Everything one DC's build reads: :func:`build_dc` reads nothing else.

    The sweep keys its build nodes on this object
    (:func:`repro.sweep.canonical.build_key`), so every field the build
    reads is a field the key covers.
    """

    seed: int
    simulation: SimulationConfig
    dc: FleetConfig
    #: The study's fault plan scoped to this DC; None when that is empty.
    fault_plan: Optional[FaultPlan] = None

    @classmethod
    def of(cls, config: StudyConfig, dc: FleetConfig) -> "BuildInputs":
        """One DC's inputs under ``config`` (the one place plans scope)."""
        plan = config.fault_plan
        scoped = None if plan is None else plan.for_dc(dc.dc_id)
        return cls(
            seed=config.seed,
            simulation=config.simulation_config(),
            dc=dc,
            fault_plan=None if scoped is None or scoped.is_empty else scoped,
        )


def build_dc(
    inputs: BuildInputs,
    chunk_epochs: "Optional[int]" = None,
    shard_dir: "Optional[str]" = None,
    max_rss_mb: "Optional[int]" = None,
) -> "tuple[SimulationResult, Optional[object]]":
    """Build one DC's fleet and simulate it: the one build path.

    ``Study.build`` and the sweep's build nodes both call this.  Every
    RNG stream is keyed by the seed and the DC id, so the result is the
    same wherever it runs.  With ``chunk_epochs`` the traffic spills to
    a shard store (under ``shard_dir/dcNN``, else a temp dir) and the
    run streams from it; the :class:`~repro.engine.StreamingSimulator`
    comes back with the result so the caller decides when to purge the
    store, which the result's traffic reads lazily.  An in-memory run
    returns None.
    """
    dc_id = inputs.dc.dc_id
    with get_telemetry().span("study.simulate_dc", dc=dc_id):
        rngs = RngFactory(inputs.seed)
        simulator = EBSSimulator(
            build_fleet(inputs.dc, rngs),
            inputs.simulation,
            rngs,
            fault_plan=inputs.fault_plan,
        )
        if chunk_epochs is None:
            return simulator.run(), None
        from repro.engine import StreamingSimulator

        engine = StreamingSimulator(
            simulator,
            chunk_epochs=chunk_epochs,
            shard_dir=(
                None if shard_dir is None else f"{shard_dir}/dc{dc_id:02d}"
            ),
            max_rss_mb=max_rss_mb,
        )
        try:
            result = simulator.run(traffic=engine.spill())
        except BaseException:
            engine.cleanup()
            raise
    return result, engine


class Study:
    """Owns the end-to-end reproduction flow for one configuration.

    ``build()`` simulates every configured data center once; results are
    cached, so running many experiments reuses the same datasets — exactly
    like the paper analyzing one collected dataset many ways.
    """

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        chunk_epochs: "Optional[int]" = None,
        shard_dir: "Optional[str]" = None,
        max_rss_mb: "Optional[int]" = None,
    ):
        self.config = config if config is not None else StudyConfig()
        self.rngs = RngFactory(self.config.seed)
        self._results: List[SimulationResult] = []
        self._experiment_cache: Dict[str, ExperimentResult] = {}
        if chunk_epochs is not None and chunk_epochs < 1:
            raise ConfigError(
                f"chunk_epochs must be >= 1, got {chunk_epochs}"
            )
        if max_rss_mb is not None and max_rss_mb < 1:
            raise ConfigError(f"max_rss_mb must be >= 1, got {max_rss_mb}")
        # Streaming-only options: a monolithic build would accept and
        # then ignore them.
        for name, value in (
            ("shard_dir", shard_dir),
            ("max_rss_mb", max_rss_mb),
        ):
            if value is not None and chunk_epochs is None:
                raise ConfigError(
                    f"{name}={value!r} applies only to a streamed build; "
                    "pass chunk_epochs or keep the default"
                )
        #: ``None`` = monolithic build; an int streams each DC's
        #: simulation out-of-core in shards of that many epochs
        #: (byte-identical results; see :mod:`repro.engine`).
        self.chunk_epochs = chunk_epochs
        self.shard_dir = shard_dir
        self.max_rss_mb = max_rss_mb
        self._engines: List[object] = []

    @classmethod
    def from_results(
        cls,
        config: StudyConfig,
        results: "List[SimulationResult]",
    ) -> "Study":
        """Assemble a pre-built study from per-DC simulation results.

        The sweep cache replays builds through this: experiments see a
        study indistinguishable from one that just ran ``build()`` —
        experiment RNG streams are label-keyed off the seed alone
        (:class:`~repro.util.rng.RngFactory` is stateless), so outputs
        are byte-identical to the monolithic path.  ``results`` must
        cover exactly the configured DCs, in ``dc_configs`` order.
        """
        want = [dc.dc_id for dc in config.dc_configs]
        got = [result.fleet.config.dc_id for result in results]
        if want != got:
            raise ConfigError(
                f"results cover DCs {got}, config expects {want}"
            )
        study = cls(config)
        study._results = list(results)
        return study

    def cleanup(self) -> None:
        """Purge temp shard stores created by streamed builds.

        Call after the last experiment has consumed ``results`` — the
        streamed ``result.traffic`` views read lazily from the stores.
        Stores under an explicit ``shard_dir`` are kept.
        """
        for engine in self._engines:
            engine.cleanup()  # type: ignore[attr-defined]
        self._engines = []

    @property
    def built(self) -> bool:
        return bool(self._results)

    @property
    def results(self) -> List[SimulationResult]:
        if not self._results:
            raise SimulationError("Study.build() has not been called")
        return self._results

    def build(self, workers: int = 1) -> "Study":
        """Simulate every DC, one after another, in this process (idempotent).

        ``workers`` is kept only so existing ``build(workers=1)`` calls
        still work; it takes 1.  The one process fan-out is the sweep's
        (``ebs-repro sweep --workers``).
        """
        if workers != 1:
            raise ConfigError(
                f"builds run in one process, got workers={workers}; "
                "fan out with 'sweep --workers'"
            )
        if self._results:
            return self
        telemetry = get_telemetry()
        dcs = self.config.dc_configs
        results: List[SimulationResult] = []
        with telemetry.span("study.build", dcs=len(dcs)) as span:
            for dc in dcs:
                result, engine = build_dc(
                    BuildInputs.of(self.config, dc),
                    self.chunk_epochs,
                    self.shard_dir,
                    self.max_rss_mb,
                )
                results.append(result)
                # Kept at once, so cleanup() purges this DC's store even
                # when a later DC fails.
                if engine is not None:
                    self._engines.append(engine)
            self._results = results
            if telemetry.enabled:
                rss = peak_rss_bytes()
                if rss is not None:
                    span.set(peak_rss_bytes=rss)
        return self

    def result_for_dc(self, dc_id: int) -> SimulationResult:
        for result in self.results:
            if result.fleet.config.dc_id == dc_id:
                return result
        raise ConfigError(f"no data center with id {dc_id}")

    def resimulate(
        self,
        result: SimulationResult,
        *,
        redundancy: "Optional[str]" = None,
        read_policy: "Optional[str]" = None,
        fault_plan: "Optional[FaultPlan]" = None,
        outputs: "Optional[Collection[str]]" = None,
    ) -> SimulationResult:
        """One DC of this study simulated again under other settings.

        ``redundancy`` and ``read_policy`` default to the study's own;
        ``fault_plan`` is the plan for this run (None is fault-free).
        The run reuses ``result``'s fleet, offered traffic and pass-2
        draws instead of generating them again: none of these settings
        enters traffic generation or those draws, so the outcome equals
        a fresh :class:`EBSSimulator` run with the same seed.  A
        streamed study's traffic is its shard store: the run streams
        from that store shard by shard, as the build did, instead of
        materializing it, and draws pass 2 again batch by batch.  When
        the settings are the ones ``result`` was built with (fault-free,
        single-copy under any read policy), ``result`` itself is
        returned.

        ``outputs`` names the result fields the caller reads
        (:data:`repro.cluster.simulator.OUTPUTS`; None is all of them):
        the run computes only what those need, and the other fields
        come back None (:meth:`EBSSimulator.run`).
        """
        wanted = resolve_outputs(outputs)
        own = self.config.simulation_config()
        sim_config = replace(
            own,
            redundancy=redundancy or own.redundancy,
            read_policy=read_policy or own.read_policy,
        )
        if (
            (fault_plan is None or fault_plan.is_empty)
            and BuildInputs.of(self.config, result.fleet.config).fault_plan
            is None
            and sim_config.redundancy_config() is None
            and own.redundancy_config() is None
            and any(mine is result for mine in self.results)
        ):
            return result.restricted(wanted)
        simulator = EBSSimulator(
            result.fleet,
            sim_config,
            self.rngs,
            fault_plan=fault_plan,
        )
        return simulator.run(
            traffic=result.traffic, draws=result.draws, outputs=wanted
        )

    def run(self, experiment_id: str) -> ExperimentResult:
        """Execute one experiment by its table/figure id (cached)."""
        from repro.core.experiments import EXPERIMENTS

        if experiment_id not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment_id!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        if experiment_id not in self._experiment_cache:
            self.build()
            telemetry = get_telemetry()
            with telemetry.span(
                "study.experiment", experiment=experiment_id
            ) as span:
                result = EXPERIMENTS[experiment_id](self)
                if telemetry.enabled:
                    # Wall-clock lives in the span itself; annotate memory
                    # (peak RSS is cumulative per process, so per-experiment
                    # deltas show which stage first grew the footprint).
                    rss = peak_rss_bytes()
                    if rss is not None:
                        span.set(peak_rss_bytes=rss)
                    telemetry.counter(
                        "study.experiments_run", experiment=experiment_id
                    ).inc()
            self._experiment_cache[experiment_id] = result
        return self._experiment_cache[experiment_id]

    def run_all(self) -> List[ExperimentResult]:
        """Run every registered experiment in id order."""
        from repro.core.experiments import experiment_ids

        return [self.run(experiment_id) for experiment_id in experiment_ids()]
