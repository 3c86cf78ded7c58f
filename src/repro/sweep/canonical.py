"""Canonical config payloads and content-addressed cache keys.

Every sweep-cache key is the SHA-256 of a *canonical* JSON payload.
Canonicalization makes the key a function of a config's **semantics**,
not of its spelling:

- dataclasses flatten to dicts keyed by field name, fields sorted, so
  declaration/keyword order never matters;
- mappings sort by key (``app_weights`` insertion order is irrelevant);
- sequences normalize to lists (``(0.2, 0.4)`` and ``[0.2, 0.4]`` are
  the same axis value);
- numbers normalize by *value*: integral floats collapse to ints
  (``4`` and ``4.0`` digest identically) and non-integral floats are
  encoded via :meth:`float.hex`, so any decimal spelling of the same
  IEEE-754 double yields the same key while the smallest semantic
  change (one ulp) yields a different one;
- enums encode as their values; NaN and signed infinities get stable
  sentinels.

Two version knobs are folded into every key:

- :data:`CODE_SCHEMA_VERSION` — bump when a result-affecting code
  change lands (simulator semantics, experiment math, dataset layout);
  bumping it invalidates every cached artifact at once.
- the node ``kind`` — build keys and experiment keys can never collide.

Build keys hash the :class:`~repro.core.study.BuildInputs` that the one
per-DC build function reads: the seed, the whole ``simulation_config()``,
the DC's fleet config and the fault plan scoped to that DC.  Experiment
knobs — lending ratios, cache sizes, balancer periods — are not in it,
which is what lets overlapping sweep points share one fleet.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from typing import Any, Dict

from repro.util.errors import ConfigError

#: Bump when a result-affecting code change must invalidate the cache.
CODE_SCHEMA_VERSION = 4

#: Largest magnitude at which an integral float collapses to an int
#: losslessly (beyond 2**53 doubles skip integers).
_MAX_EXACT_INT_FLOAT = float(2**53)


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to a canonical, JSON-serializable form.

    Raises :class:`ConfigError` for types with no canonical encoding —
    a config smuggling in an unhashable payload should fail loudly, not
    silently produce an unstable key.
    """
    # bool is an int subclass: test it first so True doesn't become 1
    # *silently* — it canonicalizes as a bool on purpose.
    if isinstance(value, bool):
        return value
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, enum.Enum):
        return canonical_value(value.value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "float:nan"
        if math.isinf(value):
            return "float:+inf" if value > 0 else "float:-inf"
        if value.is_integer() and abs(value) <= _MAX_EXACT_INT_FLOAT:
            # 4.0 == 4: numeric value, not spelling, keys the cache.
            return int(value)
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical_value(getattr(value, field.name))
            for field in sorted(
                dataclasses.fields(value), key=lambda f: f.name
            )
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonical_value(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key in sorted(value, key=str):
            out[str(key)] = canonical_value(value[key])
        return out
    # numpy scalars (if present) expose .item(); duck-type rather than
    # importing numpy here.
    item = getattr(value, "item", None)
    if callable(item):
        return canonical_value(item())
    raise ConfigError(
        f"cannot canonicalize {type(value).__name__!r} for cache keying"
    )


def digest_payload(payload: Any) -> str:
    """SHA-256 hex digest of a canonical payload."""
    encoded = json.dumps(
        canonical_value(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def config_digest(config) -> str:
    """Content key of a full :class:`~repro.core.config.StudyConfig`.

    Covers every field (experiment knobs included) plus the fault plan
    and :data:`CODE_SCHEMA_VERSION` — the identity of one sweep point.
    """
    return digest_payload(
        {
            "schema": CODE_SCHEMA_VERSION,
            "kind": "study-config",
            "config": canonical_value(config),
        }
    )


def build_key(inputs) -> str:
    """Content key of one DC's *build* node: its ``BuildInputs``.

    Two sweep points that differ only in an experiment knob (say
    ``cache_min_traces``) have equal inputs, so they share one build.
    """
    return digest_payload(
        {
            "schema": CODE_SCHEMA_VERSION,
            "kind": "build",
            **canonical_value(inputs),
        }
    )


def experiment_key(config, experiment_id: str) -> str:
    """Content key of one experiment node (full study config + id)."""
    return digest_payload(
        {
            "schema": CODE_SCHEMA_VERSION,
            "kind": "experiment",
            "experiment": str(experiment_id),
            "config": canonical_value(config),
        }
    )


def result_table_digest(result_dict: Dict[str, Any]) -> str:
    """Digest of one experiment's rendered table (its ``to_dict`` form).

    This is the yardstick for cache-hit parity: a warm replay must
    reproduce the cold run's table digests byte for byte.
    """
    return digest_payload({"kind": "experiment-result", "result": result_dict})
