"""The two weight kinds a machine carries, and their shared constants.

Weights are plain floats in natural log, and along a path they add. A
``LOG`` machine sums alternative paths (the denominator graph T∘G); a
``TROPICAL`` machine keeps the best one (the decoding graph TLG). The
additive identity is a genuine -inf, never a large negative stand-in.
"""
from __future__ import annotations

import numpy as np

LOG = "log"
TROPICAL = "tropical"
ZERO = float("-inf")
ONE = 0.0


def logsumexp(values) -> float:
    """Stable log-sum-exp of a 1-D array; -inf for an all-ZERO input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return ZERO
    m = float(np.max(arr))
    if m == ZERO:
        return ZERO
    return m + float(np.log(np.sum(np.exp(arr - m))))
