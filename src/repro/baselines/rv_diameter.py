"""Roditty–Williams-style diameter estimation with an error bound.

Roditty & Vassilevska Williams (STOC 2013 — the paper's reference [28])
gave the sub-quadratic estimator behind the 2/3-approximation folklore:

1. sample ``s`` vertices ``S`` uniformly at random and BFS from each;
2. let ``w`` be the vertex farthest from ``S`` (max over ``v`` of
   ``min_{u in S} dist(u, v)``) and BFS from ``w`` and from the
   farthest vertex of ``w``;
3. report ``max`` of all observed eccentricities.

With ``s = Theta(sqrt(n log n))`` the estimate ``D^`` satisfies
``2/3 * dia <= D^ <= dia`` with high probability — the best possible
under SETH (the negative result the paper leans on).  We implement the
estimator faithfully; it is the "approximation *with* error bounds"
counterpart to the heuristic kBFS, rounding out the related-work
roster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import (
    TraversalCounter,
    eccentricity_and_distances,
    multi_source_bfs,
)
from repro.obs.trace import Stopwatch

__all__ = ["RVDiameterEstimate", "rv_estimate_diameter"]


@dataclass(frozen=True)
class RVDiameterEstimate:
    """Outcome of the RW sampling estimator.

    ``diameter`` is a lower bound on the true diameter; with the
    default sample size it is at least ``2/3`` of it w.h.p.
    """

    diameter: int
    sample_size: int
    hitting_vertex: int       # the vertex farthest from the sample
    num_bfs: int
    elapsed_seconds: float


def rv_estimate_diameter(
    graph: Graph,
    sample_size: Optional[int] = None,
    seed: int = 0,
    counter: Optional[TraversalCounter] = None,
) -> RVDiameterEstimate:
    """Estimate the diameter with the Roditty–Williams scheme.

    ``sample_size`` defaults to ``ceil(sqrt(n log n))`` (the theory's
    choice); it is clamped to ``n``.
    """
    n = graph.num_vertices
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    if sample_size is None:
        sample_size = max(1, math.ceil(math.sqrt(n * max(1.0, math.log(n)))))
    if sample_size < 1:
        raise InvalidParameterError("sample_size must be >= 1")
    sample_size = min(sample_size, n)
    counter = counter if counter is not None else TraversalCounter()
    rng = np.random.default_rng(seed)
    watch = Stopwatch()

    sample = rng.choice(n, size=sample_size, replace=False)
    best = 0
    for u in sample:
        ecc_u, _dist = eccentricity_and_distances(
            graph, int(u), counter=counter
        )
        best = max(best, ecc_u)

    # The vertex farthest from the whole sample (one multi-source sweep).
    near_dist = multi_source_bfs(graph, sample, counter=counter)
    w = int(np.argmax(near_dist))
    ecc_w, dist_w = eccentricity_and_distances(graph, w, counter=counter)
    best = max(best, ecc_w)
    # ... and from w's farthest vertex (the classic double sweep tail).
    far = int(np.argmax(dist_w))
    ecc_far, _ = eccentricity_and_distances(graph, far, counter=counter)
    best = max(best, ecc_far)

    return RVDiameterEstimate(
        diameter=best,
        sample_size=sample_size,
        hitting_vertex=w,
        num_bfs=counter.bfs_runs,
        elapsed_seconds=watch.elapsed(),
    )
