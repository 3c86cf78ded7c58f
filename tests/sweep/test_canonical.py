"""Properties of the canonical encoding and the content-addressed keys.

The cache key must be a function of a config's *semantics*: any two
spellings of the same value digest identically, and the smallest
semantic change produces a different key.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.study import BuildInputs
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sweep.canonical import (
    CODE_SCHEMA_VERSION,
    build_key,
    canonical_value,
    config_digest,
    digest_payload,
    experiment_key,
    result_table_digest,
)
from repro.util.errors import ConfigError

from .conftest import tiny_config


class TestCanonicalValue:
    def test_integral_float_collapses_to_int(self):
        assert digest_payload(4) == digest_payload(4.0)
        assert digest_payload({"x": [1, 2.0]}) == digest_payload(
            {"x": [1.0, 2]}
        )

    def test_bool_is_not_int(self):
        assert digest_payload(True) != digest_payload(1)
        assert digest_payload(False) != digest_payload(0)
        assert canonical_value(True) is True

    def test_tuple_and_list_agree(self):
        assert digest_payload((0.2, 0.4)) == digest_payload([0.2, 0.4])

    def test_dict_insertion_order_irrelevant(self):
        a = {"BigData": 0.5, "WebApp": 0.1, "Database": 0.4}
        b = {"Database": 0.4, "WebApp": 0.1, "BigData": 0.5}
        assert digest_payload(a) == digest_payload(b)

    def test_nan_and_inf_get_stable_sentinels(self):
        assert canonical_value(float("nan")) == "float:nan"
        assert canonical_value(float("inf")) == "float:+inf"
        assert canonical_value(float("-inf")) == "float:-inf"

    def test_numpy_scalars_canonicalize_by_value(self):
        assert digest_payload(np.int32(5)) == digest_payload(5)
        assert digest_payload(np.float64(4.0)) == digest_payload(4)
        assert digest_payload(np.float64(0.25)) == digest_payload(0.25)

    def test_enum_encodes_as_value(self):
        from repro.faults.plan import FaultKind

        assert canonical_value(FaultKind.BS_CRASH) == "bs_crash"

    def test_uncanonicalizable_type_fails_loudly(self):
        with pytest.raises(ConfigError):
            canonical_value(object())

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_spelling_never_changes_digest(self, value):
        # Any decimal spelling that round-trips to the same double must
        # produce the same digest (repr is the shortest such spelling).
        assert digest_payload(value) == digest_payload(float(repr(value)))

    @given(
        st.floats(
            min_value=1e-6, max_value=1e6, allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_one_ulp_changes_digest(self, value):
        bumped = np.nextafter(value, np.inf)
        assert digest_payload(float(bumped)) != digest_payload(value)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=8),
                st.booleans(),
            ),
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_mapping_reorder_never_changes_digest(self, mapping, rnd):
        items = list(mapping.items())
        rnd.shuffle(items)
        assert digest_payload(dict(items)) == digest_payload(mapping)


class TestConfigKeys:
    def test_equal_configs_digest_identically(self):
        assert config_digest(tiny_config()) == config_digest(tiny_config())

    def test_semantic_change_changes_digest(self):
        base = tiny_config()
        assert config_digest(base) != config_digest(
            replace(base, seed=base.seed + 1)
        )
        assert config_digest(base) != config_digest(
            replace(base, cache_min_traces=base.cache_min_traces + 1)
        )

    def test_experiment_keys_separate_by_id_and_config(self):
        base = tiny_config()
        assert experiment_key(base, "table2") != experiment_key(
            base, "table3"
        )
        assert experiment_key(base, "table2") != experiment_key(
            replace(base, cache_min_traces=999), "table2"
        )


class TestBuildKeys:
    def test_experiment_knobs_do_not_change_build_keys(self):
        """The property that lets sweep points share simulated fleets."""
        base = tiny_config()
        tweaked = replace(
            base,
            cache_min_traces=base.cache_min_traces * 2,
            lending_rates=(0.3, 0.7),
            balancer_period_seconds=60,
        )
        for dc in base.dc_configs:
            assert build_key(BuildInputs.of(base, dc)) == build_key(
                BuildInputs.of(tweaked, dc)
            )

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 11},
            {"duration_seconds": 180},
            {"trace_sampling_rate": 0.5},
            # The rest of simulation_config(), which the build also reads.
            {"redundancy": "r=2"},
            {"read_policy": "least_loaded"},
            {"min_record_bytes": 4096.0},
            {"min_record_iops": 2.0},
        ],
    )
    def test_build_relevant_fields_change_build_keys(self, override):
        base = tiny_config()
        changed = replace(base, **override)
        dc = base.dc_configs[0]
        assert build_key(BuildInputs.of(base, dc)) != build_key(
            BuildInputs.of(changed, dc)
        )

    def test_fault_plan_participates_in_build_keys(self):
        base = tiny_config()
        dc = base.dc_configs[0]
        plan = FaultPlan(
            events=(
                FaultEvent(kind="bs_crash", start_s=10, end_s=30, target=0),
            )
        )
        with_plan = replace(base, fault_plan=plan)
        assert build_key(BuildInputs.of(with_plan, dc)) != build_key(
            BuildInputs.of(base, dc)
        )

    def test_fault_event_order_is_irrelevant(self):
        events = (
            FaultEvent(kind="bs_crash", start_s=10, end_s=30, target=0),
            FaultEvent(kind="cs_crash", start_s=40, end_s=60, target=1),
        )
        forward = FaultPlan(events=events)
        backward = FaultPlan(events=tuple(reversed(events)))
        base = tiny_config()
        dc = base.dc_configs[0]
        assert build_key(
            BuildInputs.of(replace(base, fault_plan=forward), dc)
        ) == build_key(BuildInputs.of(replace(base, fault_plan=backward), dc))

    def test_every_input_field_changes_build_keys(self):
        """Each ``BuildInputs`` field is in the key, a later one too."""
        base = tiny_config()
        inputs = BuildInputs.of(base, base.dc_configs[0])
        plan = FaultPlan(
            events=(
                FaultEvent(kind="bs_crash", start_s=10, end_s=30, target=0),
            )
        )
        other = BuildInputs.of(
            replace(base, seed=11, redundancy="r=2", fault_plan=plan),
            base.dc_configs[1],
        )
        for field in fields(BuildInputs):
            value = getattr(other, field.name)
            assert value != getattr(inputs, field.name), field.name
            changed = replace(inputs, **{field.name: value})
            assert build_key(changed) != build_key(inputs), field.name

    def test_key_payload_is_unchanged(self):
        """Stores warmed before ``BuildInputs`` existed still hit."""
        base = tiny_config(redundancy="r=2")
        dc = base.dc_configs[1]
        assert build_key(BuildInputs.of(base, dc)) == digest_payload(
            {
                "schema": CODE_SCHEMA_VERSION,
                "kind": "build",
                "seed": base.seed,
                "simulation": canonical_value(base.simulation_config()),
                "dc": canonical_value(dc),
                "fault_plan": None,
            }
        )


def test_result_table_digest_tracks_content():
    table = {
        "experiment_id": "table2",
        "title": "t",
        "headers": ["a"],
        "rows": [[1.5]],
    }
    same = dict(table)
    assert result_table_digest(table) == result_table_digest(same)
    changed = dict(table, rows=[[1.5000001]])
    assert result_table_digest(table) != result_table_digest(changed)
