"""The blessed public API of the reproduction package.

This module is the **stable surface**: scripts, notebooks, README
examples, and downstream tooling should import from here (or from the
package root, which re-exports the same names)::

    from repro.api import run_experiment, run_study, sweep, load_result

Everything else — :mod:`repro.core.study` plumbing,
:mod:`repro.engine.executor`, the sweep orchestrator internals — is
private: importable for spelunking, but free to change between
versions without notice.

Five entry points cover the package's use cases:

- :func:`run_experiment` — one table/figure, one config.
- :func:`run_study` — several experiments over one shared build.
- :func:`sweep` — a parameter grid with the incremental, content-
  addressed result cache (:mod:`repro.sweep`).
- :func:`load_result` — read back a results artifact written by
  ``ebs-repro run -o`` / :func:`save_results`.
- :func:`plan_balance` — an hbal-style global move plan for a cluster
  snapshot (:mod:`repro.balance`; the ``ebs-repro balance`` engine).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.config import (
    SCALE_NAMES,
    StudyConfig,
    streaming_chunk_epochs,
)
from repro.core.report import ExperimentResult
from repro.core.study import Study
from repro.core.result_schema import (
    RESULT_SCHEMA_VERSION,
    load_results,
    results_payload,
    validate_result_payload,
)
from repro.util.errors import ConfigError

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "SCALE_NAMES",
    "ExperimentResult",
    "StudyConfig",
    "load_result",
    "plan_balance",
    "run_experiment",
    "run_study",
    "save_results",
    "sweep",
]


def _study(
    config: Optional[StudyConfig],
    scale: str,
    seed: int,
    overrides: Dict[str, Any],
) -> Study:
    """The study of ``config=`` (built in memory), else of ``scale``.

    A preset scale builds as the CLI builds it: ``large``/``xlarge``
    stream (:func:`repro.core.config.streaming_chunk_epochs`).
    """
    if config is not None:
        if overrides:
            raise ConfigError(
                "pass either a full config= or keyword overrides, not both"
            )
        return Study(config)
    return Study(
        StudyConfig.scale(scale, seed=seed, **overrides),
        chunk_epochs=streaming_chunk_epochs(scale),
    )


def run_experiment(
    experiment_id: str,
    *,
    config: Optional[StudyConfig] = None,
    scale: str = "small",
    seed: int = 7,
    **overrides: Any,
) -> ExperimentResult:
    """Build a study and run one experiment by its table/figure id.

    Either pass a full ``config=`` or let ``scale``/``seed`` plus
    keyword overrides build one via :meth:`StudyConfig.scale`::

        result = run_experiment("table3")
        result = run_experiment("fig7a", scale="medium", seed=11)
        result = run_experiment("fig3a", duration_seconds=300)
        result = run_experiment(
            "redundancy_cov", redundancy="r=3", read_policy="least_loaded"
        )

    ``scale="large"``/``"xlarge"`` build streamed, as on the CLI.
    """
    study = _study(config, scale, seed, overrides)
    try:
        return study.build().run(experiment_id)
    finally:
        study.cleanup()


def run_study(
    experiments: Optional[Sequence[str]] = None,
    *,
    config: Optional[StudyConfig] = None,
    scale: str = "small",
    seed: int = 7,
    **overrides: Any,
) -> Dict[str, ExperimentResult]:
    """Run several experiments over one shared build.

    ``experiments=None`` runs the full registry in paper order.  Returns
    ``{experiment_id: ExperimentResult}`` preserving the requested order
    (dicts are insertion-ordered).
    """
    from repro.core.experiments import experiment_ids

    study = _study(config, scale, seed, overrides)
    targets = list(experiments) if experiments else experiment_ids()
    try:
        study.build()
        return {
            experiment_id: study.run(experiment_id)
            for experiment_id in targets
        }
    finally:
        study.cleanup()


def sweep(
    axes: Mapping[str, Sequence[Any]],
    *,
    experiments: Sequence[str],
    base: Optional[StudyConfig] = None,
    scale: str = "small",
    seed: int = 7,
    store_dir: "Optional[str | Path]" = None,
    workers: int = 1,
    retries: int = 1,
    chunk_epochs: Optional[int] = None,
):
    """Run an incremental parameter sweep with a content-addressed cache.

    ``axes`` maps :class:`StudyConfig` field names to value lists; the
    sweep covers their cartesian product.  Node outputs (per-DC builds,
    per-experiment tables) memoize under ``store_dir`` — overlapping
    points share builds, re-runs replay from cache byte-identically, and
    an interrupted sweep resumes from whatever was already published.
    ``store_dir=None`` uses a temp store (no reuse across calls).
    Builds from ``scale="large"``/``"xlarge"`` stream, as on the CLI;
    a ``base=`` config builds in memory unless ``chunk_epochs`` is given.

    Returns a :class:`repro.sweep.SweepOutcome`: ``outcome.tables()``
    for the comparison grids, ``outcome.stats`` for hit/miss accounting,
    ``outcome.combined_digest`` for the parity yardstick. ::

        from repro.util.units import MiB
        outcome = sweep(
            {"cache_block_bytes": [(64 * MiB,), (512 * MiB,)]},
            experiments=["fig7a"],
            store_dir="out/sweep-cache",
        )
        for grid in outcome.tables():
            print(grid.render())
    """
    import tempfile

    from repro.sweep import SweepRunner, SweepSpec

    if base is None:
        base = StudyConfig.scale(scale, seed=seed)
        chunk_epochs = streaming_chunk_epochs(scale, chunk_epochs)
    spec = SweepSpec(
        base=base, axes=dict(axes), experiments=tuple(experiments)
    )

    def run(directory):
        return SweepRunner(
            spec,
            directory,
            workers=workers,
            retries=retries,
            chunk_epochs=chunk_epochs,
        ).run()

    if store_dir is not None:
        return run(store_dir)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as temp:
        return run(temp)


def plan_balance(
    state=None,
    *,
    balance_config=None,
    config: Optional[StudyConfig] = None,
    scale: str = "small",
    seed: int = 7,
    dc: int = 0,
    direction: str = "total",
    **overrides: Any,
):
    """Plan an hbal-style global move plan for one cluster snapshot.

    Pass an explicit :class:`repro.balance.ClusterState` (e.g. from
    :meth:`~repro.balance.ClusterState.load` or
    :func:`repro.balance.random_cluster_state`), or let the function
    simulate one: build a study from ``config=`` / ``scale``/``seed``
    plus overrides, snapshot DC ``dc`` with traffic ``direction``.
    ``balance_config`` is a :class:`repro.balance.BalanceConfig`
    (defaults apply when omitted).  Returns the
    :class:`repro.balance.MovePlan`; apply it with
    ``plan.apply_to(state.copy())`` or hand it to
    ``ebs-repro balance apply``. ::

        plan = plan_balance(scale="small", seed=7)
        plan = plan_balance(state, balance_config=BalanceConfig(
            no_segment_moves=True))
    """
    from repro.balance import BalanceConfig, ClusterState, plan_moves

    if state is None:
        study = _study(config, scale, seed, overrides)
        try:
            study.build()
            results = study.results
            if not 0 <= dc < len(results):
                raise ConfigError(
                    f"dc must be in [0, {len(results) - 1}] for this "
                    f"study, got {dc}"
                )
            state = ClusterState.from_simulation(
                results[dc], direction=direction
            )
        finally:
            study.cleanup()
    elif overrides or config is not None:
        raise ConfigError(
            "pass either an explicit state or study parameters, not both"
        )
    return plan_moves(state, balance_config or BalanceConfig())


def save_results(
    results: Sequence[ExperimentResult],
    path: "str | Path",
    *,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    redundancy: Optional[str] = None,
    read_policy: Optional[str] = None,
) -> Path:
    """Write results as a versioned JSON artifact (see ``load_result``)."""
    import json

    payload = results_payload(
        results,
        scale=scale,
        seed=seed,
        redundancy=redundancy,
        read_policy=read_policy,
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_result(path: "str | Path") -> List[ExperimentResult]:
    """Load a results artifact written by ``ebs-repro run -o`` / CI.

    Validates the payload against :data:`RESULT_SCHEMA_VERSION` first
    and raises :class:`ConfigError` listing every problem found.
    """
    import json

    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"no such results file: {path}")
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path} is not valid JSON: {error}")
    problems = validate_result_payload(payload)
    if problems:
        raise ConfigError(
            f"{path} is not a valid results artifact: "
            + "; ".join(problems)
        )
    return load_results(payload)
