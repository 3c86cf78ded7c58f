"""Output digests the benchmark's correctness checks compare."""

from __future__ import annotations

import hashlib
import json
from typing import Any


def of_json(value: Any) -> str:
    """SHA-256 of a JSON-ready value in canonical (sorted-key) form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def of_result(result: Any) -> str:
    """The engine's canonical digest of one DC's simulation result."""
    from repro.engine.digest import result_digest

    return result_digest(result)
