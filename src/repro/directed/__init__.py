"""Directed-graph extension: forward eccentricities, radius and diameter
of strongly connected digraphs.

Directed IFECC runs on the shared metric-generic solver (see DESIGN.md
§5) through :class:`DirectedBFSOracle`'s reverse-distance hook; the
radius/diameter driver runs the BFS-framework loop with forward +
backward probe pairs (after Akiba, Iwata & Kawata 2015, the paper's
reference [2])."""

from repro.directed.eccentricity import (
    directed_ifecc_eccentricities,
    directed_radius_and_diameter,
    directed_solver,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import (
    DirectedBFSOracle,
    backward_bfs,
    forward_bfs,
    is_strongly_connected,
)

__all__ = [
    "DirectedGraph",
    "DirectedBFSOracle",
    "forward_bfs",
    "backward_bfs",
    "is_strongly_connected",
    "directed_ifecc_eccentricities",
    "directed_radius_and_diameter",
    "directed_solver",
    "naive_directed_eccentricities",
]
