"""Whole-graph properties: eccentricity oracle, radius, diameter and a
Table 3-style summary row.

The functions here are deliberately simple reference implementations,
the correctness oracles of the test suite; nothing else in the library
imports them.  The *fast* eccentricity computation lives in
:mod:`repro.core.ifecc`; this module is the ground truth it is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graph.components import connected_components
from repro.graph.csr import Graph
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    eccentricity_and_distances,
)

__all__ = [
    "GraphSummary",
    "exact_eccentricities",
    "radius_and_diameter",
    "summarize",
]


@dataclass(frozen=True)
class GraphSummary:
    """Table 3-style dataset summary row."""

    num_vertices: int
    num_edges: int
    radius: int
    diameter: int
    max_degree: int
    average_degree: float
    num_components: int


def exact_eccentricities(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
    require_connected: bool = True,
) -> np.ndarray:
    """Exact eccentricity of every vertex by |V| BFS runs (the oracle).

    Quadratic time; intended for tests and small graphs.  With
    ``require_connected=False``, eccentricities are taken within each
    vertex's component.

    :dtype ecc: int32
    """
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int32)
    for v in range(n):
        ecc_v, dist = eccentricity_and_distances(graph, v, counter=counter)
        if require_connected and np.any(dist == UNREACHED) and n > 1:
            raise DisconnectedGraphError(
                connected_components(graph).num_components
            )
        ecc[v] = ecc_v
    return ecc


def radius_and_diameter(eccentricities: np.ndarray) -> tuple:
    """Radius (min ecc) and diameter (max ecc) from an ED array."""
    if len(eccentricities) == 0:
        return 0, 0
    return int(eccentricities.min()), int(eccentricities.max())


def summarize(graph: Graph, eccentricities: Optional[np.ndarray] = None) -> GraphSummary:
    """Compute a :class:`GraphSummary` (runs the oracle when no ED given)."""
    labelling = connected_components(graph)
    if eccentricities is None:
        eccentricities = exact_eccentricities(graph, require_connected=False)
    radius, diameter = radius_and_diameter(eccentricities)
    degrees = graph.degrees
    return GraphSummary(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        radius=radius,
        diameter=diameter,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        average_degree=float(degrees.mean()) if len(degrees) else 0.0,
        num_components=labelling.num_components,
    )
