"""``build_large_streamed``: a large-scale build through the streaming engine.

Why this workload: the build is about 99% of its time, spent in the
out-of-core engine (shard spill, pass 1 per shard, merge, pass 2 per
batch), and no experiment layer does work.  It runs the same simulator
as ``study_small`` but out of core instead of in memory, so a change
that helps one engine path and hurts the other shows as a regression
on one of the two.

Set-up: imports and the config.  Timed: ``build()`` with
``chunk_epochs=4`` (the CLI default for large), ``table2``, then
``cleanup()``.  The horizon is 600 s, which keeps peak RSS under 2 GiB
(at 1800 s it reaches 4.2 GiB) and lets a run cover several inputs.
Operations are the per-DC builds; one fails if its digest differs from
a monolithic build of the same seed, recorded in the reference table.
"""

from __future__ import annotations

import tempfile
from typing import Any, Dict

import digests
import layers

NAME = "build_large_streamed"
#: Seconds of ``--seconds`` each input stands for, about what one takes
#: with set-up and checks on a 2-vCPU machine: seven inputs at 40 s.
NOMINAL_S = 5.5
CHUNK_EPOCHS = 4
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"duration_seconds": 600},
    "reduced": {"duration_seconds": 200},
}


def config(seed: int, size: str):
    from repro.core.config import StudyConfig

    return StudyConfig.scale("large", seed=seed, **SIZES[size])


def setup(seed: int, size: str = "full") -> Dict[str, Any]:
    from repro.core.study import Study

    return {"study": Study(config(seed, size), chunk_epochs=CHUNK_EPOCHS)}


def timed(state: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    study = state["study"]
    study.build(workers=1)
    try:
        table = study.run("table2")
    except Exception as error:  # noqa: BLE001 - counted as failed ops
        table = error
    out: Dict[str, Any] = {"table": table, "layers": {}}
    if traced:
        # The worker gives each iteration a temp directory of its own, so
        # it holds the streamed build's shard stores and nothing else.
        out["layers"]["engine.shard_bytes"] = float(
            layers.dir_bytes(tempfile.gettempdir())
        )
    study.cleanup()
    return out


def observe(state: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.report import ExperimentResult

    study = state["study"]
    table = outputs["table"]
    return {
        "ops": len(study.config.dc_configs),
        "work": len(study.results),
        "problems": (
            []
            if isinstance(table, ExperimentResult)
            else [f"table2 failed: {table!r}"]
        ),
        "digests": {"dcs": [digests.of_result(r) for r in study.results]},
    }


def failures(observed: Dict[str, Any], reference: Dict[str, Any]) -> int:
    """Per-DC builds whose digest differs from the monolithic reference."""
    got, want = observed["digests"]["dcs"], reference["dcs"]
    if len(got) != len(want):
        return observed["ops"]
    return sum(1 for a, b in zip(got, want) if a != b)


def reference(seed: int, size: str) -> Dict[str, Any]:
    """Per-DC digests of a monolithic build (the streamed build's oracle)."""
    from repro.core.study import Study

    study = Study(config(seed, size)).build(workers=1)
    return {"dcs": [digests.of_result(r) for r in study.results]}
