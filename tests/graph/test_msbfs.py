"""Unit tests for the batch entry points of bit-parallel multi-source BFS
(MS-BFS): ``batch_distance_rows`` and ``repro.graph.batch.ecc_batch``."""

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
from repro.graph import batch_distance_rows
from repro.graph.batch import ecc_batch
from repro.graph.traversal import TraversalCounter, bfs_distances
from helpers import exact_eccentricities, random_connected_graph


def _eccentricities(g):
    return ecc_batch(g, np.arange(g.num_vertices))


class TestMultiSourceDistances:
    def test_matches_single_bfs_rows(self):
        g = grid_graph(5, 5)
        sources = [0, 7, 24, 12]
        matrix = batch_distance_rows(g, sources)
        for row, s in enumerate(sources):
            np.testing.assert_array_equal(
                matrix[row], bfs_distances(g, s)
            )

    def test_random_graphs(self):
        for seed in range(4):
            g = random_connected_graph(70, 60, seed)
            sources = list(range(0, 70, 7))
            matrix = batch_distance_rows(g, sources)
            for row, s in enumerate(sources):
                np.testing.assert_array_equal(
                    matrix[row], bfs_distances(g, s)
                )

    def test_more_than_64_sources_batches(self):
        g = random_connected_graph(100, 80, seed=1)
        sources = list(range(100))
        matrix = batch_distance_rows(g, sources)
        assert matrix.shape == (100, 100)
        for s in (0, 63, 64, 99):
            np.testing.assert_array_equal(
                matrix[s], bfs_distances(g, s)
            )

    def test_disconnected_unreached(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        matrix = batch_distance_rows(g, [0, 2])
        assert matrix[0].tolist() == [0, 1, -1, -1]
        assert matrix[1].tolist() == [-1, -1, 0, -1]

    def test_duplicate_sources_allowed(self):
        g = path_graph(5)
        matrix = batch_distance_rows(g, [2, 2])
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_empty_sources(self):
        g = path_graph(3)
        assert batch_distance_rows(g, []).shape == (0, 3)

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            batch_distance_rows(path_graph(3), [0, 9])

    def test_counter_credits_all_lanes(self):
        g = cycle_graph(10)
        counter = TraversalCounter()
        batch_distance_rows(g, [0, 1, 2], counter=counter)
        assert counter.bfs_runs == 3


class TestMSBFSEccentricities:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path_graph(9),
            lambda: cycle_graph(8),
            lambda: star_graph(7),
            lambda: grid_graph(4, 6),
        ],
        ids=["path", "cycle", "star", "grid"],
    )
    def test_structured(self, factory):
        g = factory()
        np.testing.assert_array_equal(
            _eccentricities(g), exact_eccentricities(g)
        )

    def test_random(self):
        for seed in range(3):
            g = random_connected_graph(90, 70, seed)
            np.testing.assert_array_equal(
                _eccentricities(g), exact_eccentricities(g)
            )

    def test_matches_ifecc_on_fixture(self, social_graph, social_truth):
        np.testing.assert_array_equal(
            _eccentricities(social_graph), social_truth
        )

    def test_disconnected_within_component(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        assert _eccentricities(g).tolist() == [1, 1, 2, 1, 2]
