"""Reference least-loaded read assignment, kept as a test oracle.

This is the numpy form of
:func:`repro.cluster.redundancy.policies._least_loaded`: per segment, a
``np.lexsort`` of the copies by (current BS load, slot) and a
fancy-indexed load update.  It is easy to audit and pays numpy call
overhead on every segment; the production greedy runs over Python
floats and must give the same weights, bit for bit
(``tests/cluster/test_least_loaded_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.redundancy.policies import (
    PolicyInputs,
    _base_bs_load,
    _descending_mass_order,
)


def least_loaded(inputs: PolicyInputs, rng=None) -> np.ndarray:
    """Greedy: each segment's reads go to its currently lightest copies."""
    num_segments, width = inputs.table.shape
    weights = np.zeros((num_segments, width), dtype=np.float64)
    load = _base_bs_load(inputs)
    fanout = inputs.read_fanout
    share = 1.0 / fanout
    slot_ids = np.arange(width)
    for seg in _descending_mass_order(inputs):
        row = inputs.table[seg]
        order = np.lexsort((slot_ids, load[row]))
        chosen = order[:fanout]
        weights[seg, chosen] = share
        load[row[chosen]] += inputs.seg_read_mass[seg] * share
    return weights
