"""Unit tests for BFS parent tracking and path reconstruction."""

import numpy as np
import pytest

from repro.errors import InvalidVertexError
from repro.graph.csr import Graph
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.paths import bfs_parents, diameter_path
from repro.graph.traversal import bfs_distances
from helpers import has_edge, random_connected_graph, shortest_path


def assert_valid_path(graph, path, source, target):
    assert path[0] == source
    assert path[-1] == target
    for u, v in zip(path, path[1:]):
        assert has_edge(graph, u, v), (u, v)
    dist = bfs_distances(graph, source)
    assert len(path) - 1 == dist[target]


class TestBFSParents:
    def test_distances_match_plain_bfs(self):
        for seed in range(4):
            g = random_connected_graph(50, 30, seed)
            dist, _parent = bfs_parents(g, 0)
            np.testing.assert_array_equal(dist, bfs_distances(g, 0))

    def test_parent_of_source_is_source(self):
        g = grid_graph(3, 3)
        _dist, parent = bfs_parents(g, 4)
        assert parent[4] == 4

    def test_parents_one_level_up(self):
        g = grid_graph(4, 4)
        dist, parent = bfs_parents(g, 0)
        for v in range(1, g.num_vertices):
            assert dist[parent[v]] == dist[v] - 1

    def test_parents_are_neighbors(self):
        g = random_connected_graph(40, 25, seed=9)
        _dist, parent = bfs_parents(g, 3)
        for v in range(g.num_vertices):
            if v != 3:
                assert has_edge(g, v, int(parent[v]))

    def test_unreachable_parent_minus_one(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        dist, parent = bfs_parents(g, 0)
        assert parent[2] == -1
        assert dist[2] == -1

    def test_deterministic_smallest_parent(self):
        # vertex 3 of a 4-cycle is reachable via 0->1->?? no: grid corner
        g = grid_graph(2, 2)  # square: 0-1, 0-2, 1-3, 2-3
        _dist, parent = bfs_parents(g, 0)
        assert parent[3] == 1  # smallest-id parent among {1, 2}

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            bfs_parents(path_graph(3), 5)


class TestShortestPath:
    def test_path_graph(self):
        g = path_graph(6)
        assert shortest_path(g, 0, 5) == [0, 1, 2, 3, 4, 5]

    def test_source_equals_target(self):
        g = star_graph(4)
        assert shortest_path(g, 2, 2) == [2]

    def test_valid_on_random_graphs(self):
        for seed in range(4):
            g = random_connected_graph(45, 30, seed)
            path = shortest_path(g, 0, g.num_vertices - 1)
            assert_valid_path(g, path, 0, g.num_vertices - 1)

    def test_disconnected_returns_none(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_invalid_target(self):
        with pytest.raises(InvalidVertexError):
            shortest_path(path_graph(3), 0, 9)


class TestDiameterPath:
    def test_length_equals_diameter(self, social_graph, social_truth):
        path = diameter_path(social_graph)
        assert len(path) - 1 == int(social_truth.max())
        assert_valid_path(social_graph, path, path[0], path[-1])

    def test_cycle(self):
        path = diameter_path(cycle_graph(8))
        assert len(path) - 1 == 4

    def test_paper_example(self, example_graph):
        path = diameter_path(example_graph)
        assert len(path) - 1 == 5
