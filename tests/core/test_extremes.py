"""Unit tests for radius/diameter-only computation with early stop."""

import numpy as np
import pytest

from repro.core.extremes import radius_and_diameter
from repro.core.ifecc import compute_eccentricities
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from helpers import exact_eccentricities, random_connected_graph


class TestCorrectness:
    def test_paper_example(self, example_graph):
        result = radius_and_diameter(example_graph)
        assert result.radius == 3
        assert result.diameter == 5

    @pytest.mark.parametrize(
        "factory,radius,diameter",
        [
            (lambda: path_graph(9), 4, 8),
            (lambda: cycle_graph(10), 5, 5),
            (lambda: star_graph(6), 1, 2),
            (lambda: complete_graph(5), 1, 1),
            (lambda: grid_graph(3, 5), 3, 6),
        ],
        ids=["path", "cycle", "star", "complete", "grid"],
    )
    def test_structured(self, factory, radius, diameter):
        result = radius_and_diameter(factory())
        assert result.radius == radius
        assert result.diameter == diameter

    def test_random_graphs(self):
        for seed in range(10):
            g = random_connected_graph(60, 45, seed)
            truth = exact_eccentricities(g)
            result = radius_and_diameter(g)
            assert result.radius == truth.min()
            assert result.diameter == truth.max()

    def test_witness_vertices(self, social_graph, social_truth):
        result = radius_and_diameter(social_graph)
        assert social_truth[result.center_vertex] == result.radius
        assert social_truth[result.peripheral_vertex] == result.diameter

    def test_single_vertex(self):
        result = radius_and_diameter(Graph.from_edges([], num_vertices=1))
        assert result.radius == 0
        assert result.diameter == 0


class TestEfficiency:
    def test_cheaper_than_full_ed(self, social_graph):
        extremes = radius_and_diameter(social_graph)
        full = compute_eccentricities(social_graph)
        assert extremes.num_bfs <= full.num_bfs

    def test_far_below_n(self, social_graph):
        result = radius_and_diameter(social_graph)
        assert result.num_bfs < social_graph.num_vertices / 5

    def test_counter_consistent(self, web_graph):
        from repro.graph.traversal import TraversalCounter

        counter = TraversalCounter()
        result = radius_and_diameter(web_graph, counter=counter)
        assert counter.bfs_runs == result.num_bfs


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            radius_and_diameter(Graph.from_edges([], num_vertices=0))

    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            radius_and_diameter(g)
