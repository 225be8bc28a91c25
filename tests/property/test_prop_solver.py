"""Property tests for the metric-generic solver core.

For each of the three oracles — unweighted BFS, weighted Dijkstra, and
directed forward/backward BFS — the anytime invariant must hold: at
*every* snapshot of :meth:`EccentricitySolver.steps`, the bound arrays
sandwich the naive per-vertex oracle truth, and exhausting the iterator
resolves every vertex to that truth.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracles import BFSOracle
from repro.core.solver import EccentricitySolver
from repro.directed.eccentricity import (
    directed_solver,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.weighted.eccentricity import (
    naive_weighted_eccentricities,
    weighted_solver,
)
from repro.weighted.graph import WeightedGraph

from helpers import exact_eccentricities, random_connected_graph

_TOL = 1e-9


@st.composite
def small_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_connected_graph(n, extra, seed)


@st.composite
def small_weighted_graphs(draw):
    base = draw(small_connected_graphs())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    triples = [
        (u, v, float(rng.integers(1, 10))) for u, v in base.edges()
    ]
    return WeightedGraph.from_edges(triples, num_vertices=base.num_vertices)


@st.composite
def small_strongly_connected_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=35))
    extra = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]  # Hamiltonian cycle
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            arcs.append((int(u), int(v)))
    return DirectedGraph.from_arcs(arcs, num_vertices=n)


def assert_anytime_sandwich(solver, truth, tol):
    """Bounds sandwich the truth at every snapshot; final state is exact."""
    for _snapshot in solver.steps():
        assert np.all(solver.bounds.lower <= truth + tol)
        # Unresolved vertices may still hold the +inf sentinel upper
        # bound, which trivially satisfies upper >= truth.
        assert np.all(solver.bounds.upper >= truth - tol)
    assert solver.bounds.all_resolved()
    np.testing.assert_allclose(solver.bounds.lower, truth, atol=tol)


class TestAnytimeSandwich:
    @given(
        small_connected_graphs(), st.integers(min_value=1, max_value=3)
    )
    @settings(max_examples=25, deadline=None)
    def test_bfs_oracle(self, g, r):
        truth = exact_eccentricities(g)
        solver = EccentricitySolver(BFSOracle(g), num_references=r)
        assert_anytime_sandwich(solver, truth, tol=0)

    @given(small_weighted_graphs())
    @settings(max_examples=20, deadline=None)
    def test_dijkstra_oracle(self, g):
        truth = naive_weighted_eccentricities(g)
        assert_anytime_sandwich(weighted_solver(g), truth, tol=_TOL)

    @given(small_strongly_connected_digraphs())
    @settings(max_examples=20, deadline=None)
    def test_directed_oracle(self, g):
        truth = naive_directed_eccentricities(g)
        assert_anytime_sandwich(directed_solver(g), truth, tol=0)


class TestBudgetedMonotonicity:
    @given(small_weighted_graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_weighted_budget_estimate_is_lower_bound(self, g, k):
        from repro.weighted.eccentricity import weighted_solver

        truth = naive_weighted_eccentricities(g)
        result = weighted_solver(g).run_budgeted(k + 1)
        assert np.all(result.eccentricities <= truth + _TOL)
        assert result.num_bfs <= k + 1
