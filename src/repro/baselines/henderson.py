"""OPEX — Henderson (LLNL technical report, 2011).

The earliest of the bound-based exact ED algorithms the paper surveys
(Section 6): repeatedly BFS from the unresolved vertex with the largest
gap between its eccentricity bounds.  It predates (and is dominated by)
the Takes & Kosters selection rule, but serves as the historical
baseline of the BFS-framework lineage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.framework import framework_eccentricities, largest_gap
from repro.core.result import EccentricityResult
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter

__all__ = ["opex_eccentricities"]


def opex_eccentricities(
    graph: Graph,
    max_bfs: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Exact ED with Henderson's largest-gap selection rule."""
    return framework_eccentricities(
        graph, largest_gap, "OPEX", max_bfs, counter
    )
