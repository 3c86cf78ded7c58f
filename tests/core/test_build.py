"""One per-DC build function: every caller builds the same datasets.

``Study.build``, a streamed study and the sweep's build nodes (inline
and pooled) all go through
:func:`repro.core.study.build_dc`; a redundant, faulted config is where
copies of a build used to drift apart.
"""

from dataclasses import replace

import pytest

from repro.core import Study
from repro.engine.digest import result_digest
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, RedirectPolicy
from repro.sweep import ArtifactStore, SweepRunner, SweepSpec
from repro.util.errors import ConfigError
from tests.core.test_study import tiny_config

CONFIG = replace(
    tiny_config(),
    redundancy="r=2",
    read_policy="least_loaded",
    fault_plan=FaultPlan(
        events=(
            FaultEvent(
                kind=FaultKind.BS_CRASH, start_s=30, end_s=90, target=1
            ),
        ),
        policy=RedirectPolicy.QUEUE,
    ),
)


def _digests(study):
    return [result_digest(result) for result in study.results]


@pytest.fixture(scope="module")
def reference():
    """Per-DC digests of the plain inline ``Study.build()``."""
    study = Study(CONFIG).build()
    assert all(result.faults is not None for result in study.results)
    return _digests(study)


def test_build_runs_in_one_process():
    with pytest.raises(ConfigError, match="sweep --workers"):
        Study(CONFIG).build(workers=2)


def test_streamed_study_matches_inline(reference):
    study = Study(CONFIG, chunk_epochs=2).build()
    try:
        assert _digests(study) == reference
    finally:
        study.cleanup()


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_sweep_build_nodes_match_inline(reference, tmp_path, workers):
    spec = SweepSpec(base=CONFIG, axes={}, experiments=("table2",))
    SweepRunner(spec, tmp_path, workers=workers).run()
    store = ArtifactStore(tmp_path)
    by_dc = {}
    for key in store.keys():
        envelope = store.get(key)
        if envelope["kind"] == "build":
            payload = envelope["payload"]
            by_dc[payload["dc_id"]] = payload["result_digest"]
    assert [by_dc[dc.dc_id] for dc in CONFIG.dc_configs] == reference
