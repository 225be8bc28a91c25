"""Tests for the weighted-graph extension (Dijkstra + weighted IFECC)."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.counters import TraversalCounter
from repro.errors import (
    DisconnectedGraphError,
    GraphConstructionError,
    InvalidVertexError,
)
from repro.graph.generators import cycle_graph, path_graph
from repro.weighted.dijkstra import dijkstra_distances
from repro.weighted.eccentricity import (
    naive_weighted_eccentricities,
    weighted_eccentricities,
    weighted_radius_and_diameter,
    weighted_solver,
)
from repro.weighted.graph import WeightedGraph
from helpers import heap_dijkstra, random_connected_graph, unit_weighted


def weighted_kifecc(graph, k):
    """Weighted kIFECC: the reference traversal plus ``k`` FFO probes,
    with the lower bounds as the estimate."""
    return weighted_solver(graph).run_budgeted(k + 1)


def random_weighted_graph(n, extra, seed, max_weight=9):
    base = random_connected_graph(n, extra, seed)
    rng = np.random.default_rng(seed + 1)
    triples = [
        (u, v, int(rng.integers(1, max_weight + 1)))
        for u, v in base.edges()
    ]
    return WeightedGraph.from_edges(triples, num_vertices=n)


def uniform_weighted_graph(n, extra, seed, zero_frac=0.0):
    """U(0,1) weights, a ``zero_frac`` share of them set to zero."""
    base = random_connected_graph(n, extra, seed)
    rng = np.random.default_rng(seed + 1)
    edges = list(base.edges())
    weights = rng.random(len(edges))
    weights[rng.random(len(edges)) < zero_frac] = 0.0
    return WeightedGraph.from_edges(
        [(u, v, w) for (u, v), w in zip(edges, weights)], num_vertices=n
    )


def assert_matches_heap(graph, source):
    """Distances bit-identical to the heap reference, same counters."""
    counter = TraversalCounter()
    got = dijkstra_distances(graph, source, counter=counter)
    want, edges_scanned, visited = heap_dijkstra(graph, source)
    np.testing.assert_array_equal(got, want)
    assert counter.edges_scanned == edges_scanned
    assert counter.vertices_visited == visited
    assert counter.edges_inspected >= counter.edges_scanned
    return counter


def scipy_weighted_distances(graph: WeightedGraph, source: int):
    matrix = sp.csr_matrix(
        (graph.weights, graph.indices, graph.indptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )
    return csgraph.dijkstra(matrix, indices=source)


class TestWeightedGraph:
    def test_from_edges(self):
        g = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_duplicate_keeps_minimum(self):
        g = WeightedGraph.from_edges([(0, 1, 5.0), (1, 0, 2.0)])
        nbrs, weights = g.neighbors(0)
        assert weights[0] == 2.0

    def test_self_loop_dropped(self):
        g = WeightedGraph.from_edges([(0, 0, 1.0), (0, 1, 1.0)])
        assert g.num_edges == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphConstructionError):
            WeightedGraph.from_edges([(0, 1, -1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphConstructionError):
            WeightedGraph.from_edges([(0, 5, 1.0)], num_vertices=3)

    def test_from_unweighted(self):
        g = unit_weighted(cycle_graph(5), weight=2.0)
        assert g.num_edges == 5
        assert np.all(g.weights == 2.0)

    def test_symmetry(self):
        g = WeightedGraph.from_edges([(0, 1, 3.5)])
        n0, w0 = g.neighbors(0)
        n1, w1 = g.neighbors(1)
        assert n0.tolist() == [1] and n1.tolist() == [0]
        assert w0[0] == w1[0] == 3.5

    def test_invalid_vertex(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(InvalidVertexError):
            g.neighbors(4)


class TestDijkstra:
    def test_weighted_path(self):
        g = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        np.testing.assert_array_equal(
            dijkstra_distances(g, 0), [0.0, 2.0, 5.0]
        )

    def test_shortcut_chosen(self):
        # direct heavy edge vs two light hops
        g = WeightedGraph.from_edges(
            [(0, 2, 10.0), (0, 1, 2.0), (1, 2, 3.0)]
        )
        assert dijkstra_distances(g, 0)[2] == 5.0

    def test_unreachable_inf(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)], num_vertices=3)
        assert np.isinf(dijkstra_distances(g, 0)[2])

    def test_matches_scipy(self):
        for seed in range(5):
            g = random_weighted_graph(40, 30, seed)
            for source in (0, 20, 39):
                # Integer weights: every sum is exact, so equal bit for bit.
                np.testing.assert_array_equal(
                    dijkstra_distances(g, source),
                    scipy_weighted_distances(g, source),
                )

    def test_zero_weight_edges_match_heap(self):
        for seed in range(4):
            g = uniform_weighted_graph(50, 60, seed, zero_frac=0.4)
            assert_matches_heap(g, seed)
        # Every weight zero: Δ = 0, one bucket holds the whole component.
        zeros = unit_weighted(cycle_graph(6), weight=0.0)
        counter = assert_matches_heap(zeros, 2)
        np.testing.assert_array_equal(dijkstra_distances(zeros, 2), np.zeros(6))
        assert counter.vertices_visited == 6

    def test_disconnected_matches_heap(self):
        g = WeightedGraph.from_edges(
            [(0, 1, 0.3), (1, 2, 0.7), (3, 4, 2.5), (4, 5, 0.1)],
            num_vertices=7,
        )
        for source in range(7):
            counter = assert_matches_heap(g, source)
            assert counter.vertices_visited == np.isfinite(
                dijkstra_distances(g, source)
            ).sum()

    def test_edgeless_graphs(self):
        # Empty ``weights`` (``.max()`` would raise): one vertex, or more.
        for n, source in ((1, 0), (4, 1)):
            g = WeightedGraph.from_edges([], num_vertices=n)
            want = np.full(n, np.inf)
            want[source] = 0.0
            np.testing.assert_array_equal(dijkstra_distances(g, source), want)
            counter = assert_matches_heap(g, source)
            assert (counter.edges_scanned, counter.vertices_visited) == (0, 1)

    def test_hub_source_matches_heap(self):
        # A star with U(0,1) spokes plus random chords: the hub's one
        # bucket reaches every vertex in one gather.
        rng = np.random.default_rng(3)
        n = 200
        triples = [(0, v, rng.random()) for v in range(1, n)]
        triples += [
            (int(u), int(v), rng.random())
            for u, v in rng.integers(1, n, size=(150, 2))
            if u != v
        ]
        g = WeightedGraph.from_edges(triples, num_vertices=n)
        assert_matches_heap(g, 0)
        assert_matches_heap(g, 17)

    def test_shortcut_forces_rerelaxation(self):
        # A long path of tiny weights and one heavy shortcut 0 -- k: the
        # first bucket reaches k over the shortcut, then improves it
        # along the path, so k's arcs are inspected twice.
        k = 40
        triples = [(v, v + 1, 0.01) for v in range(k)]
        triples += [(0, k, 1.0), (k, k + 1, 1.0)]
        g = WeightedGraph.from_edges(triples)
        counter = assert_matches_heap(g, 0)
        assert counter.edges_inspected > counter.edges_scanned
        assert dijkstra_distances(g, 0)[k] < 1.0

    def test_non_finite_weights_match_heap(self):
        # An inf arc never improves a distance, nor does a NaN arc; a
        # NaN also makes Δ NaN, so one bucket takes every open vertex.
        for bad in (np.inf, np.nan):
            g = WeightedGraph.from_edges(
                [(0, 1, 1.0), (1, 2, bad), (2, 3, 0.5), (0, 3, 4.0)]
            )
            assert_matches_heap(g, 0)
            assert_matches_heap(g, 2)

    def test_random_graphs_match_heap(self):
        # Integer weights 1..9 on even seeds, U(0,1) weights on odd ones.
        for seed in range(10):
            g = (uniform_weighted_graph if seed % 2 else random_weighted_graph)(
                70, 90, seed
            )
            for source in (0, 35, 69):
                counter = assert_matches_heap(g, source)
                assert counter.bfs_runs == 1
                assert counter.history == [f"dijkstra:{source}"]
                # Each vertex but the source is reached by >= 1 improvement.
                assert counter.relaxations >= counter.vertices_visited - 1

    def test_unit_weights_match_bfs(self):
        from repro.graph.traversal import bfs_distances

        base = random_connected_graph(50, 40, seed=2)
        g = unit_weighted(base)
        np.testing.assert_array_equal(
            dijkstra_distances(g, 0).astype(int), bfs_distances(base, 0)
        )

    def test_invalid_source(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(InvalidVertexError):
            dijkstra_distances(g, 9)


class TestWeightedIFECC:
    def test_matches_naive_oracle(self):
        for seed in range(6):
            g = random_weighted_graph(45, 35, seed)
            truth = naive_weighted_eccentricities(g)
            result = weighted_eccentricities(g)
            assert result.exact
            np.testing.assert_allclose(result.eccentricities, truth)

    def test_unit_weights_match_unweighted_ifecc(self):
        from repro.core.ifecc import compute_eccentricities

        base = random_connected_graph(60, 45, seed=4)
        weighted = weighted_eccentricities(unit_weighted(base))
        unweighted = compute_eccentricities(base)
        np.testing.assert_allclose(
            weighted.eccentricities,
            unweighted.eccentricities.astype(float),
        )

    def test_weighted_path_eccentricities(self):
        g = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 5.0)])
        result = weighted_eccentricities(g)
        np.testing.assert_allclose(result.eccentricities, [7.0, 5.0, 7.0])

    def test_fewer_traversals_than_naive(self):
        g = random_weighted_graph(120, 150, seed=7)
        result = weighted_eccentricities(g)
        assert result.num_bfs < g.num_vertices

    def test_float_weights(self):
        g = WeightedGraph.from_edges(
            [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.75)]
        )
        truth = naive_weighted_eccentricities(g)
        result = weighted_eccentricities(g)
        np.testing.assert_allclose(result.eccentricities, truth)

    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)], num_vertices=3)
        with pytest.raises(DisconnectedGraphError):
            weighted_eccentricities(g)

    def test_bounds_sandwich(self):
        g = random_weighted_graph(40, 30, seed=9)
        truth = naive_weighted_eccentricities(g)
        result = weighted_eccentricities(g)
        assert np.all(result.lower <= truth + 1e-9)
        assert np.all(result.upper >= truth - 1e-9)


class TestWeightedKIFECC:
    def test_budget_estimate_is_lower_bound(self):
        g = random_weighted_graph(60, 50, seed=3)
        truth = naive_weighted_eccentricities(g)
        for k in (0, 1, 3, 7):
            result = weighted_kifecc(g, k=k)
            assert result.num_bfs <= k + 1
            assert np.all(result.eccentricities <= truth + 1e-9)

    def test_exact_at_large_budget(self):
        g = random_weighted_graph(45, 35, seed=6)
        truth = naive_weighted_eccentricities(g)
        result = weighted_kifecc(g, k=g.num_vertices)
        assert result.exact
        np.testing.assert_allclose(result.eccentricities, truth)

    def test_algorithm_tag(self):
        g = random_weighted_graph(20, 10, seed=0)
        result = weighted_kifecc(g, k=2)
        assert result.algorithm == "IFECC-weighted-1(budget=3)"

    def test_negative_budget_rejected(self):
        from repro.errors import InvalidParameterError

        g = random_weighted_graph(10, 5, seed=0)
        with pytest.raises(InvalidParameterError):
            weighted_solver(g).run_budgeted(-1)


class TestWeightedAnytime:
    def test_steps_snapshots_monotone(self):
        g = random_weighted_graph(80, 90, seed=4)
        truth = naive_weighted_eccentricities(g)
        solver = weighted_solver(g)
        resolved_trace = []
        for snapshot in solver.steps():
            resolved_trace.append(snapshot.resolved)
            assert np.all(solver.bounds.lower <= truth + 1e-9)
            assert np.all(solver.bounds.upper >= truth - 1e-9)
        assert resolved_trace == sorted(resolved_trace)
        assert resolved_trace[-1] == g.num_vertices

    def test_radius_and_diameter(self):
        for seed in range(4):
            g = random_weighted_graph(50, 45, seed)
            truth = naive_weighted_eccentricities(g)
            extremes = weighted_radius_and_diameter(g)
            assert extremes.radius == pytest.approx(truth.min())
            assert extremes.diameter == pytest.approx(truth.max())
            assert truth[extremes.center_vertex] == pytest.approx(
                truth.min()
            )
            assert truth[extremes.peripheral_vertex] == pytest.approx(
                truth.max()
            )

    def test_extremes_early_stop(self):
        g = random_weighted_graph(140, 170, seed=11)
        extremes = weighted_radius_and_diameter(g)
        # Certifying both extremes must undercut the n Dijkstra runs the
        # naive oracle needs.
        assert extremes.num_bfs < g.num_vertices

    def test_extremes_disconnected_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)], num_vertices=3)
        with pytest.raises(DisconnectedGraphError):
            weighted_radius_and_diameter(g)
