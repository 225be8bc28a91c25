"""Weighted IFECC — the paper's algorithm lifted to non-negative weights.

Lemmas 3.1 and 3.3 are triangle inequalities, so they hold for any
shortest-path metric.  Replacing BFS with Dijkstra in Algorithm 2 gives
an exact weighted eccentricity-distribution algorithm with the same
structure: one reference traversal, a farthest-first order, and bound
tightening until every gap closes.

Since the unification on :class:`repro.core.solver.EccentricitySolver`,
this module is a thin instantiation over
:class:`repro.weighted.dijkstra.DijkstraOracle` — which brings the full
runtime along for free: the anytime ``steps()`` protocol (build a solver
with :func:`weighted_solver`), kIFECC-style budgeting
(``weighted_solver(g).run_budgeted(k + 1)``) and extremes early-stop
(:func:`weighted_radius_and_diameter`).

Floating-point note: bounds are compared with the absolute tolerance
``DijkstraOracle.tolerance`` (1e-9) because distances are sums of
float64 weights; with integer-valued weights the comparisons are exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.extremes import ExtremesResult, oracle_radius_and_diameter
from repro.core.result import EccentricityResult
from repro.core.solver import EccentricitySolver
from repro.graph.traversal import TraversalCounter
from repro.weighted.dijkstra import (
    DijkstraOracle,
    weighted_eccentricity_and_distances,
)
from repro.weighted.graph import WeightedGraph

__all__ = [
    "weighted_eccentricities",
    "naive_weighted_eccentricities",
    "weighted_radius_and_diameter",
    "weighted_solver",
]

def naive_weighted_eccentricities(
    graph: WeightedGraph,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """One Dijkstra per vertex — the weighted oracle."""
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.float64)
    for v in range(n):
        ecc[v], _dist = weighted_eccentricity_and_distances(
            graph, v, counter=counter
        )
    return ecc


def weighted_solver(
    graph: WeightedGraph,
    counter: Optional[TraversalCounter] = None,
) -> EccentricitySolver:
    """An :class:`EccentricitySolver` over Dijkstra distances.

    The solver's :meth:`~EccentricitySolver.steps` iterator is the
    weighted anytime mode: every yielded snapshot leaves valid
    lower/upper bounds in ``solver.bounds``.
    """
    return EccentricitySolver(
        DijkstraOracle(graph),
        num_references=1,
        counter=counter,
    )


def weighted_eccentricities(
    graph: WeightedGraph,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Exact weighted ED with the IFECC scheme (Dijkstra traversals).

    Returns an :class:`EccentricityResult` whose arrays are ``float64``.
    Raises :class:`repro.errors.DisconnectedGraphError` on disconnected
    inputs.
    """
    solver = weighted_solver(graph, counter=counter)
    return solver.run(algorithm="IFECC-weighted")


def weighted_radius_and_diameter(
    graph: WeightedGraph,
    counter: Optional[TraversalCounter] = None,
) -> ExtremesResult:
    """Certified weighted radius and diameter with early termination.

    The extremes rules are bound statements, so the generic driver
    applies unchanged; certification is within
    ``DijkstraOracle.tolerance``.
    """
    return oracle_radius_and_diameter(
        DijkstraOracle(graph), counter=counter
    )
