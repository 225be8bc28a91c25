"""Weighted-graph extension: IFECC over Dijkstra distances.

The paper's bounds are triangle inequalities, valid for any
non-negative edge-weight metric; this subpackage carries the algorithm
over (see DESIGN.md §5 — the solver/oracle split, and §6 —
extensions)."""

from repro.weighted.dijkstra import (
    DijkstraOracle,
    dijkstra_distances,
    weighted_eccentricity_and_distances,
)
from repro.weighted.eccentricity import (
    naive_weighted_eccentricities,
    weighted_eccentricities,
    weighted_radius_and_diameter,
    weighted_solver,
)
from repro.weighted.graph import WeightedGraph

__all__ = [
    "WeightedGraph",
    "DijkstraOracle",
    "dijkstra_distances",
    "weighted_eccentricity_and_distances",
    "weighted_eccentricities",
    "naive_weighted_eccentricities",
    "weighted_radius_and_diameter",
    "weighted_solver",
]
