"""Robustness grab-bag: degenerate inputs across the whole API surface."""

import numpy as np
import pytest

from repro.analysis.memory import MemoryFootprint
from repro.core.kifecc import kifecc_sweep
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators import path_graph
from repro.pll.index import build_pll_index
from repro.weighted.graph import WeightedGraph

from helpers import graph_from_adjacency


class TestDegenerateGraphs:
    def test_pll_on_empty_graph(self):
        index = build_pll_index(Graph.from_edges([], num_vertices=0))
        assert index.num_vertices == 0
        assert index.num_label_entries() == 0

    def test_pll_on_isolated_vertices(self):
        g = Graph.from_edges([], num_vertices=3)
        index = build_pll_index(g)
        assert index.query(0, 0) == 0
        assert index.query(0, 2) == -1

    def test_builder_accepts_numpy_pairs(self):
        b = GraphBuilder()
        b.add_edges(np.array([[0, 1], [1, 2]]))
        assert b.build().num_edges == 2

    def test_from_adjacency_unsorted_input(self):
        g = graph_from_adjacency([[2, 1], [0], [0]])
        assert g.neighbors(0).tolist() == [1, 2]

    def test_weighted_empty(self):
        g = WeightedGraph.from_edges([])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_weighted_zero_weight_edge(self):
        from repro.weighted.dijkstra import dijkstra_distances

        g = WeightedGraph.from_edges([(0, 1, 0.0), (1, 2, 1.0)])
        np.testing.assert_array_equal(
            dijkstra_distances(g, 0), [0.0, 0.0, 1.0]
        )


class TestDegenerateBudgets:
    def test_kifecc_sweep_k_zero(self, example_graph):
        entries = kifecc_sweep(example_graph, [0])
        assert entries[0]["k"] == 0
        assert entries[0]["result"].num_bfs <= 1

    def test_memory_ratio_to_zero(self):
        a = MemoryFootprint("a", 10, 0, 0)
        zero = MemoryFootprint("z", 0, 0, 0)
        assert a.ratio_to(zero) == float("inf")

    def test_snapshot_counter_attached(self, example_graph):
        import repro

        result = repro.compute_eccentricities(example_graph)
        assert result.counter is not None
        assert result.counter.bfs_runs == result.num_bfs


class TestIdempotence:
    def test_repeat_runs_identical(self, social_graph):
        import repro

        a = repro.compute_eccentricities(social_graph)
        b = repro.compute_eccentricities(social_graph)
        np.testing.assert_array_equal(a.eccentricities, b.eccentricities)
        assert a.num_bfs == b.num_bfs

    def test_engine_not_reusable_side_effects(self, example_graph):
        from repro.core.ifecc import IFECC

        engine = IFECC(example_graph)
        first = engine.run()
        # a second run() on a finished engine is a no-op that returns
        # the same (already exact) answer
        second = engine.run()
        np.testing.assert_array_equal(
            first.eccentricities, second.eccentricities
        )

    def test_path_graph_large(self):
        # long thin graphs exercise the deepest BFS loops
        import repro

        g = path_graph(3000)
        result = repro.compute_eccentricities(g)
        assert result.diameter == 2999
        assert result.radius == 1500
