"""SNAP's sampling diameter estimator (case study, Section 7.5).

The Stanford Network Analysis Platform estimates a graph's diameter by
BFS from ``k`` vertices sampled uniformly at random and reporting the
maximum eccentricity observed (SNAP's code defaults to ``k = 1000``).

The paper's case study shows this estimator is unstable and biased low —
the vertices realising the diameter are a vanishing fraction of V
(~3.2e-6 on their four study graphs, Figure 15) — and proposes replacing
it with IFECC.  We reproduce the estimator faithfully, including its
accuracy metric ``est_diameter / true_diameter * 100``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.batch import ecc_batch
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = ["SnapDiameterEstimate", "snap_estimate_diameter"]


@dataclass(frozen=True)
class SnapDiameterEstimate:
    """One run of the SNAP sampling estimator.

    Attributes
    ----------
    diameter:
        The estimated diameter (max eccentricity over the sample) — a
        lower bound on the true diameter.
    sample_size:
        Number of BFS sources used.
    sources:
        The sampled vertex ids.
    elapsed_seconds:
        Wall time of the run.
    """

    diameter: int
    sample_size: int
    sources: np.ndarray
    elapsed_seconds: float

    def accuracy_against(self, true_diameter: int) -> float:
        """The case study's accuracy: ``est / true * 100`` (Exp-1)."""
        if true_diameter <= 0:
            return 100.0
        return 100.0 * self.diameter / true_diameter


def snap_estimate_diameter(
    graph: Graph,
    sample_size: int = 1000,
    seed: int = 0,
    counter: Optional[TraversalCounter] = None,
) -> SnapDiameterEstimate:
    """Estimate the diameter from ``sample_size`` random BFS runs."""
    if sample_size < 1:
        raise InvalidParameterError("sample_size must be >= 1")
    n = graph.num_vertices
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    counter = counter if counter is not None else TraversalCounter()
    rng = np.random.default_rng(seed)
    sample_size = min(sample_size, n)
    sources = rng.choice(n, size=sample_size, replace=False)
    watch = Stopwatch()
    # The sample's eccentricities come from shared MS-BFS lane sweeps —
    # identical values, a fraction of the one-BFS-per-source wall time.
    ecc = ecc_batch(graph, sources, counter=counter)
    best = int(ecc.max()) if len(ecc) else 0
    elapsed = watch.elapsed()
    return SnapDiameterEstimate(
        diameter=best,
        sample_size=sample_size,
        sources=sources.astype(np.int32),
        elapsed_seconds=elapsed,
    )
