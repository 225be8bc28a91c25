"""Edge-case matrix: every exact algorithm x every tiny graph.

Small graphs are where off-by-one errors in bound logic hide (empty
territories, FFO orders of length 1, reference == only vertex...).
This module runs the full algorithm roster over a systematic set of
graphs with n = 1..6 and asserts unanimous agreement with the oracle.
"""

import numpy as np
import pytest

from repro.baselines.boundecc import boundecc_eccentricities
from repro.baselines.naive import naive_eccentricities
from repro.baselines.pllecc import pllecc_eccentricities
from repro.core.extremes import radius_and_diameter
from repro.core.ifecc import compute_eccentricities
from repro.graph.csr import Graph
from repro.graph.batch import ecc_batch
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from helpers import exact_via_f1, unit_weighted

TINY_GRAPHS = {
    "single": Graph.from_edges([], num_vertices=1),
    "edge": path_graph(2),
    "path3": path_graph(3),
    "path4": path_graph(4),
    "triangle": complete_graph(3),
    "cycle4": cycle_graph(4),
    "cycle5": cycle_graph(5),
    "star4": star_graph(4),
    "k4": complete_graph(4),
    "paw": Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]),
    "bull": Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]
    ),
    "butterfly": Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    ),
    "k23": Graph.from_edges(
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    ),
    "diamond": Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
}


@pytest.fixture(params=sorted(TINY_GRAPHS), ids=sorted(TINY_GRAPHS))
def tiny(request):
    graph = TINY_GRAPHS[request.param]
    return graph, naive_eccentricities(graph).eccentricities


class TestTinyMatrix:
    def test_ifecc1(self, tiny):
        graph, truth = tiny
        np.testing.assert_array_equal(
            compute_eccentricities(graph).eccentricities, truth
        )

    def test_ifecc3(self, tiny):
        graph, truth = tiny
        np.testing.assert_array_equal(
            compute_eccentricities(graph, num_references=3).eccentricities,
            truth,
        )

    def test_boundecc(self, tiny):
        graph, truth = tiny
        np.testing.assert_array_equal(
            boundecc_eccentricities(graph).eccentricities, truth
        )

    def test_pllecc(self, tiny):
        graph, truth = tiny
        report = pllecc_eccentricities(graph, num_references=2)
        np.testing.assert_array_equal(
            report.result.eccentricities, truth
        )

    def test_f1_theorem(self, tiny):
        graph, truth = tiny
        np.testing.assert_array_equal(
            exact_via_f1(graph).eccentricities, truth
        )

    def test_msbfs(self, tiny):
        graph, truth = tiny
        np.testing.assert_array_equal(
            ecc_batch(graph, np.arange(graph.num_vertices)), truth
        )

    def test_extremes(self, tiny):
        graph, truth = tiny
        result = radius_and_diameter(graph)
        assert result.radius == int(truth.min())
        assert result.diameter == int(truth.max())

    def test_weighted_unit_lift(self, tiny):
        from repro.weighted.eccentricity import weighted_eccentricities

        graph, truth = tiny
        result = weighted_eccentricities(unit_weighted(graph))
        np.testing.assert_allclose(
            result.eccentricities, truth.astype(float)
        )

    def test_directed_lift(self, tiny):
        from repro.directed.eccentricity import directed_ifecc_eccentricities
        from repro.directed.graph import DirectedGraph

        graph, truth = tiny
        result = directed_ifecc_eccentricities(
            DirectedGraph.from_undirected(graph)
        )
        np.testing.assert_array_equal(result.eccentricities, truth)
