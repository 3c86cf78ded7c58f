"""``study_small``: a monolithic small study, built and run in full.

Why this workload: experiments are nearly all of its time (the build is
a few percent), so changes to the balancer, dispatch, cache replay,
throttle, prediction and balance layers, and to the in-memory simulator
the experiments re-run, show here.  The streaming engine does no work
here.

Set-up: imports and ``StudyConfig.scale("small")`` with the horizon cut
from 400 s to 120 s: one 400 s study takes half a minute, and its time
and peak memory swing by a fifth from seed to seed, so a run measures
several shorter inputs instead of one long one.  Timed: ``build()``
then every registered experiment, one ``Study.run`` each, in
``run_all`` order.  Operations are the experiments; one fails if it
raises, returns no result, or its digest differs from the recorded
reference.
"""

from __future__ import annotations

from typing import Any, Dict

import digests

NAME = "study_small"
#: Seconds of ``--seconds`` each input stands for, about what one takes
#: with set-up and checks on a 2-vCPU machine: four inputs at 40 s.
NOMINAL_S = 9.5
#: Keyword overrides of ``StudyConfig.scale("small")`` per input size.  The
#: 120 s horizon is already small, and a shorter one leaves ``fig4c`` too
#: few prediction periods, so there is no reduced size.
SIZES: Dict[str, Dict[str, Any]] = {"full": {"duration_seconds": 120}}


def setup(seed: int, size: str = "full") -> Dict[str, Any]:
    from repro.core.config import StudyConfig
    from repro.core.experiments import experiment_ids
    from repro.core.study import Study

    config = StudyConfig.scale("small", seed=seed, **SIZES[size])
    return {
        "seed": seed,
        "study": Study(config),
        "experiment_ids": experiment_ids(),
    }


def timed(state: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    study = state["study"]
    study.build(workers=1)
    results: Dict[str, Any] = {}
    for experiment_id in state["experiment_ids"]:
        try:
            results[experiment_id] = study.run(experiment_id)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            results[experiment_id] = error
    return {"results": results, "layers": {}}


def observe(state: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, Any]:
    """Digests and counts of one run's outputs (no pass/fail judgement)."""
    from repro.core.report import ExperimentResult
    from repro.core.result_schema import (
        results_payload,
        validate_result_payload,
    )

    study = state["study"]
    results = outputs["results"]
    ok = [r for r in results.values() if isinstance(r, ExperimentResult)]
    payload = results_payload(
        ok,
        scale="small",
        seed=state["seed"],
        redundancy=study.config.redundancy,
        read_policy=study.config.read_policy,
    )
    return {
        "ops": len(results),
        "work": len(results),
        "problems": validate_result_payload(payload),
        "digests": {
            "payload": digests.of_json(payload),
            "dcs": [digests.of_result(r) for r in study.results],
            "experiments": {
                experiment_id: (
                    digests.of_json(result.to_dict())
                    if isinstance(result, ExperimentResult)
                    else f"error: {result!r}"
                )
                for experiment_id, result in results.items()
            },
        },
    }


def failures(observed: Dict[str, Any], reference: Dict[str, Any]) -> int:
    """Failed experiments; a mismatch of the shared outputs fails them all."""
    got = observed["digests"]
    want = reference["experiments"]
    bad = {
        experiment_id
        for experiment_id in set(want) | set(got["experiments"])
        if got["experiments"].get(experiment_id) != want.get(experiment_id)
    }
    if bad:
        return len(bad)
    if (
        got["payload"] != reference["payload"]
        or got["dcs"] != reference["dcs"]
    ):
        return observed["ops"]
    return 0


def reference(seed: int, size: str) -> Dict[str, Any]:
    """The digests one untraced run of this seed produces."""
    state = setup(seed, size)
    return observe(state, timed(state, traced=False))["digests"]
