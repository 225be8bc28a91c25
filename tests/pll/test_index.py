"""Unit tests for the pruned-landmark-labeling index."""

import numpy as np
import pytest

from repro.errors import InvalidVertexError
from repro.graph.csr import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.traversal import bfs_distances
from repro.pll.index import PLLIndex, build_pll_index
from helpers import random_connected_graph


def assert_index_exact(graph, index):
    for s in range(graph.num_vertices):
        dist = bfs_distances(graph, s)
        for t in range(graph.num_vertices):
            assert index.query(s, t) == dist[t], (s, t)


class TestCorrectness:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path_graph(9),
            lambda: cycle_graph(8),
            lambda: star_graph(7),
            lambda: complete_graph(6),
            lambda: grid_graph(4, 4),
        ],
        ids=["path", "cycle", "star", "complete", "grid"],
    )
    def test_structured_graphs(self, factory):
        g = factory()
        assert_index_exact(g, build_pll_index(g))

    def test_random_graphs(self):
        for seed in range(5):
            g = random_connected_graph(40, 30, seed)
            assert_index_exact(g, build_pll_index(g))

    def test_paper_example(self, example_graph):
        assert_index_exact(example_graph, build_pll_index(example_graph))

    def test_disconnected_returns_minus_one(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        index = build_pll_index(g)
        assert index.query(0, 2) == -1
        assert index.query(0, 1) == 1

    def test_self_distance_zero(self, social_graph):
        index = build_pll_index(social_graph)
        for v in (0, 5, 100):
            assert index.query(v, v) == 0

    def test_query_symmetric(self, web_graph):
        index = build_pll_index(web_graph)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, t = rng.integers(0, web_graph.num_vertices, size=2)
            assert index.query(int(s), int(t)) == index.query(int(t), int(s))


class TestOrderings:
    @pytest.mark.parametrize("ordering", ["degree", "random", "closeness"])
    def test_all_orderings_exact(self, ordering, example_graph):
        index = build_pll_index(example_graph, ordering=ordering, seed=2)
        assert_index_exact(example_graph, index)

    def test_degree_ordering_smaller_labels_on_small_world(self, social_graph):
        by_degree = build_pll_index(social_graph, ordering="degree")
        by_random = build_pll_index(social_graph, ordering="random", seed=1)
        assert (
            by_degree.num_label_entries() <= by_random.num_label_entries()
        )


class TestSizeAccounting:
    def test_entries_positive(self, example_graph):
        index = build_pll_index(example_graph)
        assert index.num_label_entries() >= example_graph.num_vertices

    def test_size_bytes_matches_entries(self, example_graph):
        index = build_pll_index(example_graph)
        assert index.size_bytes() == index.num_label_entries() * 8

    def test_average_label_size(self, example_graph):
        index = build_pll_index(example_graph)
        expected = index.num_label_entries() / 13
        assert index.average_label_size() == pytest.approx(expected)

    def test_path_labels_grow(self):
        # On a path the 2-hop cover needs ~log n to O(n) entries; labels
        # are much larger relative to n than on a star.
        star = build_pll_index(star_graph(33))
        path = build_pll_index(path_graph(33))
        assert path.num_label_entries() > star.num_label_entries()

    def test_construction_time_recorded(self, example_graph):
        assert build_pll_index(example_graph).construction_seconds > 0

    def test_repr(self, example_graph):
        assert "entries=" in repr(build_pll_index(example_graph))


class TestValidation:
    def test_invalid_vertex(self, example_graph):
        index = build_pll_index(example_graph)
        with pytest.raises(InvalidVertexError):
            index.query(0, 13)

    def test_label_of(self, example_graph):
        index = build_pll_index(example_graph)
        hubs, dists = index.label_of(0)
        assert len(hubs) == len(dists)
        assert np.all(np.diff(hubs) > 0)  # ranks strictly increasing
