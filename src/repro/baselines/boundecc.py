"""BoundECC — Takes & Kosters, *Computing the Eccentricity Distribution of
Large Graphs* (Algorithms, 2013).

The strongest pre-PLLECC exact algorithm under the BFS-framework: keep
lower/upper eccentricity bounds, repeatedly BFS from a heuristically chosen
vertex, and stop when all bounds meet.  The selection heuristic alternates
between the unresolved vertex with the smallest lower bound (a candidate
center — its BFS drags upper bounds down) and the one with the largest
upper bound (a candidate periphery vertex — its BFS pushes lower bounds
up), breaking ties by degree.

The paper's experiments (Figure 8) show BoundECC trailing PLLECC by ~52x
and IFECC-1 by ~2675x on average, and timing out on STAC; our reproduction
recovers the ordering (not the constants).
"""

from __future__ import annotations

from typing import Optional

from repro.core.framework import framework_eccentricities, takes_kosters
from repro.core.result import EccentricityResult
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter

__all__ = ["boundecc_eccentricities"]


def boundecc_eccentricities(
    graph: Graph,
    max_bfs: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Exact ED with the Takes & Kosters bound-and-select loop.

    ``max_bfs`` optionally caps the work (the 24-hour cut-off of the
    paper's testbed translated to a BFS budget); a capped run returns
    ``exact=False`` with the current lower bounds as estimates.
    """
    return framework_eccentricities(
        graph, takes_kosters(graph.degrees), "BoundECC", max_bfs, counter
    )
