"""Unit tests for whole-graph property helpers."""

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError
from repro.graph.csr import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graph.properties import (
    exact_eccentricities,
    radius_and_diameter,
    summarize,
)


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

    def test_disconnected_raises(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            exact_eccentricities(g)

    def test_disconnected_per_component(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        ecc = exact_eccentricities(g, require_connected=False)
        assert ecc.tolist() == [1, 1, 2, 1, 2]


class TestRadiusDiameter:
    def test_path(self):
        ecc = exact_eccentricities(path_graph(7))
        assert radius_and_diameter(ecc) == (3, 6)

    def test_empty(self):
        assert radius_and_diameter(np.empty(0, dtype=np.int32)) == (0, 0)

    def test_radius_diameter_inequality(self):
        # diameter <= 2 * radius in any connected graph
        for n in (4, 7, 10):
            ecc = exact_eccentricities(path_graph(n))
            r, d = radius_and_diameter(ecc)
            assert r <= d <= 2 * r


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize(star_graph(6))
        assert summary.num_vertices == 6
        assert summary.num_edges == 5
        assert summary.radius == 1
        assert summary.diameter == 2
        assert summary.max_degree == 5
        assert summary.num_components == 1

    def test_summary_with_precomputed_ecc(self):
        g = path_graph(4)
        ecc = exact_eccentricities(g)
        summary = summarize(g, eccentricities=ecc)
        assert summary.diameter == 3
