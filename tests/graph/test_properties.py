"""Unit tests for the |V|-BFS oracle (``helpers.exact_eccentricities``,
the per-source loop of ``naive_eccentricities(traversal="loop")``) and
the radius and diameter its result reports."""

import numpy as np

from repro.baselines.naive import naive_eccentricities
from repro.graph.csr import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from helpers import exact_eccentricities


def radius_and_diameter(graph):
    result = naive_eccentricities(graph, traversal="loop")
    return result.radius, result.diameter


class TestExactEccentricities:
    def test_path(self):
        ecc = exact_eccentricities(path_graph(5))
        assert ecc.tolist() == [4, 3, 2, 3, 4]

    def test_cycle_uniform(self):
        ecc = exact_eccentricities(cycle_graph(9))
        assert np.all(ecc == 4)

    def test_star(self):
        ecc = exact_eccentricities(star_graph(5))
        assert ecc.tolist() == [1, 2, 2, 2, 2]

    def test_complete(self):
        assert np.all(exact_eccentricities(complete_graph(4)) == 1)

    def test_disconnected_per_component(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        ecc = exact_eccentricities(g)
        assert ecc.tolist() == [1, 1, 2, 1, 2]


class TestRadiusDiameter:
    def test_path(self):
        assert radius_and_diameter(path_graph(7)) == (3, 6)

    def test_empty(self):
        assert radius_and_diameter(Graph.from_edges([], num_vertices=0)) == (
            0,
            0,
        )

    def test_radius_diameter_inequality(self):
        # diameter <= 2 * radius in any connected graph
        for n in (4, 7, 10):
            r, d = radius_and_diameter(path_graph(n))
            assert r <= d <= 2 * r
