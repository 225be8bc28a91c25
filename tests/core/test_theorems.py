"""Tests of Theorems 5.5 and 5.6: the F1-exact and F2-approximate
algorithms, on structured and random graphs."""

import numpy as np
import pytest

from repro.core.stratify import stratify
from repro.graph.csr import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from helpers import (
    approximate_via_f2,
    core_periphery,
    exact_eccentricities,
    exact_via_f1,
    random_connected_graph,
)


class TestTheorem55:
    """BFS from F1 computes the exact eccentricity distribution."""

    def test_paper_example(self, example_graph, example_eccentricities):
        result = exact_via_f1(example_graph)
        np.testing.assert_array_equal(
            result.eccentricities, example_eccentricities
        )

    def test_social_graph(self, social_graph, social_truth):
        result = exact_via_f1(social_graph)
        np.testing.assert_array_equal(result.eccentricities, social_truth)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path_graph(11),
            lambda: cycle_graph(9),
            lambda: star_graph(8),
            lambda: complete_graph(6),
            lambda: grid_graph(4, 5),
            lambda: core_periphery(30, 20, seed=3),
        ],
        ids=["path", "cycle", "star", "complete", "grid", "core-periphery"],
    )
    def test_structured(self, factory):
        g = factory()
        np.testing.assert_array_equal(
            exact_via_f1(g).eccentricities, exact_eccentricities(g)
        )

    def test_random_graphs(self):
        for seed in range(10):
            g = random_connected_graph(70, 50, seed)
            np.testing.assert_array_equal(
                exact_via_f1(g).eccentricities, exact_eccentricities(g)
            )

    def test_arbitrary_reference(self, web_graph, web_truth):
        # Theorem 5.5 holds for ANY reference node, not just max-degree.
        rng = np.random.default_rng(0)
        for z in rng.choice(web_graph.num_vertices, size=5, replace=False):
            result = exact_via_f1(web_graph, reference=int(z))
            np.testing.assert_array_equal(result.eccentricities, web_truth)

    def test_bfs_budget_is_f1_plus_reference(self, social_graph):
        strat = stratify(social_graph)
        result = exact_via_f1(social_graph)
        assert result.num_bfs == len(strat.f1) + 1

    def test_single_vertex(self):
        g = Graph.from_edges([], num_vertices=1)
        assert exact_via_f1(g).eccentricities.tolist() == [0]


class TestTheorem56:
    """BFS from F2 yields a [7/12, 3/2] approximation."""

    def _check_band(self, graph, truth, reference=None):
        result = approximate_via_f2(graph, reference=reference)
        est = result.eccentricities.astype(np.float64)
        positive = truth > 0
        ratio = est[positive] / truth[positive]
        # floor() rounding can dip the estimate at most 1 below the
        # real-valued theorem bound.
        assert np.all((est + 1)[positive] / truth[positive] > 7.0 / 12.0)
        assert np.all(ratio <= 1.5 + 1e-12)
        return result

    def test_paper_example(self, example_graph, example_eccentricities):
        self._check_band(example_graph, example_eccentricities)

    def test_social_graph(self, social_graph, social_truth):
        self._check_band(social_graph, social_truth)

    def test_lattice_graph(self, lattice_graph, lattice_truth):
        self._check_band(lattice_graph, lattice_truth)

    def test_random_graphs(self):
        for seed in range(10):
            g = random_connected_graph(60, 40, seed)
            self._check_band(g, exact_eccentricities(g))

    def test_arbitrary_reference(self, web_graph, web_truth):
        rng = np.random.default_rng(1)
        for z in rng.choice(web_graph.num_vertices, size=4, replace=False):
            self._check_band(web_graph, web_truth, reference=int(z))

    def test_exact_inside_f2(self, social_graph, social_truth):
        strat = stratify(social_graph)
        result = approximate_via_f2(social_graph)
        for v in strat.f2:
            assert result.eccentricities[v] == social_truth[v]

    def test_bfs_budget_is_f2_plus_reference(self, social_graph):
        strat = stratify(social_graph)
        result = approximate_via_f2(social_graph)
        assert result.num_bfs == len(strat.f2) + 1

    def test_f2_much_cheaper_than_f1(self, social_graph):
        strat = stratify(social_graph)
        assert len(strat.f2) <= len(strat.f1)

    def test_small_world_f2_high_accuracy(self, social_graph, social_truth):
        # Section 7.4: in practice F2 computes nearly every vertex exactly.
        result = approximate_via_f2(social_graph)
        accuracy = (
            100.0
            * np.count_nonzero(result.eccentricities == social_truth)
            / len(social_truth)
        )
        assert accuracy >= 95.0

    def test_marked_not_exact(self, social_graph):
        assert not approximate_via_f2(social_graph).exact
