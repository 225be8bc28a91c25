"""Accuracy metrics for approximate eccentricity results (Section 7).

The paper's headline metric is

    Accuracy = |{v : est(v) == ecc(v)}| / |V| * 100

(exact-match percentage).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["accuracy"]


def accuracy(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Exact-match percentage (the paper's Accuracy)."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise InvalidParameterError("estimate/truth shape mismatch")
    if estimate.size == 0:
        return 100.0
    return 100.0 * float(np.count_nonzero(estimate == truth)) / estimate.size
