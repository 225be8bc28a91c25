"""Unit tests for the BoundECC (Takes & Kosters 2013) baseline."""

import numpy as np
import pytest

from repro.baselines.boundecc import boundecc_eccentricities
from repro.graph.generators import complete_graph, grid_graph, path_graph
from helpers import exact_eccentricities, random_connected_graph


class TestBoundECC:
    def test_paper_example(self, example_graph, example_eccentricities):
        result = boundecc_eccentricities(example_graph)
        assert result.exact
        np.testing.assert_array_equal(
            result.eccentricities, example_eccentricities
        )

    def test_social_graph(self, social_graph, social_truth):
        result = boundecc_eccentricities(social_graph)
        np.testing.assert_array_equal(result.eccentricities, social_truth)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path_graph(12),
            lambda: grid_graph(4, 5),
            lambda: complete_graph(6),
        ],
        ids=["path", "grid", "complete"],
    )
    def test_structured(self, factory):
        g = factory()
        result = boundecc_eccentricities(g)
        np.testing.assert_array_equal(
            result.eccentricities, exact_eccentricities(g)
        )

    def test_random_graphs(self):
        for seed in range(5):
            g = random_connected_graph(60, 40, seed)
            result = boundecc_eccentricities(g)
            np.testing.assert_array_equal(
                result.eccentricities, exact_eccentricities(g)
            )

    def test_fewer_bfs_than_naive(self, social_graph):
        result = boundecc_eccentricities(social_graph)
        assert result.num_bfs < social_graph.num_vertices

    def test_slower_than_ifecc_in_bfs(self, social_graph):
        # Figure 8's ordering: IFECC-1 needs fewer traversals.
        from repro.core.ifecc import compute_eccentricities

        bound = boundecc_eccentricities(social_graph)
        ifecc = compute_eccentricities(social_graph)
        assert ifecc.num_bfs <= bound.num_bfs

    def test_budget_capped_run(self, social_graph, social_truth):
        result = boundecc_eccentricities(social_graph, max_bfs=3)
        assert not result.exact
        assert result.num_bfs == 3
        assert np.all(result.lower <= social_truth)

    def test_algorithm_tag(self, example_graph):
        assert boundecc_eccentricities(example_graph).algorithm == "BoundECC"
