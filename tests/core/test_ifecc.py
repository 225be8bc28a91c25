"""Unit and integration tests for the IFECC engine (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.ifecc import (
    IFECC,
    compute_eccentricities,
    eccentricities_per_component,
)
from repro.errors import (
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.graph.csr import Graph
from repro.graph.generators import (
    balanced_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.obs.trace import MemorySink, tracing
from helpers import exact_eccentricities, random_connected_graph


class TestExactness:
    def test_paper_example(self, example_graph, example_eccentricities):
        result = compute_eccentricities(example_graph)
        np.testing.assert_array_equal(
            result.eccentricities, example_eccentricities
        )

    def test_social_graph(self, social_graph, social_truth):
        result = compute_eccentricities(social_graph)
        np.testing.assert_array_equal(result.eccentricities, social_truth)

    def test_web_graph(self, web_graph, web_truth):
        result = compute_eccentricities(web_graph)
        np.testing.assert_array_equal(result.eccentricities, web_truth)

    def test_lattice_graph(self, lattice_graph, lattice_truth):
        result = compute_eccentricities(lattice_graph)
        np.testing.assert_array_equal(result.eccentricities, lattice_truth)

    @pytest.mark.parametrize("r", [1, 2, 4, 8, 16])
    def test_all_reference_counts(self, social_graph, social_truth, r):
        result = compute_eccentricities(social_graph, num_references=r)
        assert result.exact
        np.testing.assert_array_equal(result.eccentricities, social_truth)

    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(17),
            lambda: cycle_graph(12),
            lambda: star_graph(9),
            lambda: complete_graph(7),
            lambda: grid_graph(5, 6),
        ],
        ids=["path", "cycle", "star", "complete", "grid"],
    )
    def test_structured_graphs(self, graph_factory):
        g = graph_factory()
        truth = exact_eccentricities(g)
        result = compute_eccentricities(g)
        np.testing.assert_array_equal(result.eccentricities, truth)

    def test_random_graphs_sweep(self):
        for seed in range(8):
            g = random_connected_graph(80, 60, seed)
            truth = exact_eccentricities(g)
            for r in (1, 3):
                result = compute_eccentricities(g, num_references=r)
                np.testing.assert_array_equal(result.eccentricities, truth)

    def test_single_vertex(self):
        g = Graph.from_edges([], num_vertices=1)
        result = compute_eccentricities(g)
        assert result.eccentricities.tolist() == [0]

    def test_two_vertices(self):
        result = compute_eccentricities(path_graph(2))
        assert result.eccentricities.tolist() == [1, 1]

    def test_reference_rows_replayed(self, social_graph, social_truth):
        # With r > 1 a reference in another reference's FFO is applied
        # from its retained row instead of a fresh traversal.
        result = IFECC(social_graph, num_references=4).run()
        np.testing.assert_array_equal(result.eccentricities, social_truth)
        tree = balanced_tree(2, 4)
        sink = MemorySink()
        with tracing(sink):
            result = IFECC(tree, num_references=16).run()
        np.testing.assert_array_equal(
            result.eccentricities, exact_eccentricities(tree)
        )
        replayed = [
            e["source"] for e in sink.events if e["name"] == "solver.replay"
        ]
        assert replayed
        assert set(replayed) <= set(result.reference_nodes.tolist())
        assert len(result.counter.history) == result.num_bfs

    def test_alternative_strategies_exact(self, social_graph, social_truth):
        for strategy in ("degree", "random", "center"):
            result = compute_eccentricities(
                social_graph, strategy=strategy, seed=5
            )
            np.testing.assert_array_equal(
                result.eccentricities, social_truth
            )


class TestEfficiency:
    def test_far_fewer_bfs_than_naive(self, social_graph):
        result = compute_eccentricities(social_graph)
        assert result.num_bfs < social_graph.num_vertices / 4

    def test_figure6_bfs_count_on_example(self, example_graph):
        # Figure 6: IFECC with one reference node needs 4 + 1 = 5 BFS.
        result = compute_eccentricities(example_graph, num_references=1)
        assert result.num_bfs == 5

    def test_single_reference_not_slower_in_bfs(self, example_graph):
        # Example 4.7: r=1 needs fewer BFS than r=2 on the example.
        one = compute_eccentricities(example_graph, num_references=1)
        two = compute_eccentricities(example_graph, num_references=2)
        assert one.num_bfs < two.num_bfs

    def test_f1_upper_bounds_bfs_count(self, social_graph):
        # Theorem 5.5: |F1| (+1 reference) BFS always suffice.
        from repro.core.stratify import stratify

        strat = stratify(social_graph)
        result = compute_eccentricities(social_graph)
        assert result.num_bfs <= len(strat.f1) + 1


class TestResultMetadata:
    def test_marked_exact(self, social_graph):
        assert compute_eccentricities(social_graph).exact

    def test_algorithm_tag(self, social_graph):
        assert (
            compute_eccentricities(social_graph, num_references=2).algorithm
            == "IFECC-2"
        )

    def test_reference_nodes_recorded(self, example_graph):
        result = compute_eccentricities(example_graph, num_references=2)
        assert result.reference_nodes.tolist() == [12, 6]

    def test_radius_diameter(self, example_graph):
        result = compute_eccentricities(example_graph)
        assert result.radius == 3
        assert result.diameter == 5

    def test_bounds_equal_when_exact(self, social_graph):
        result = compute_eccentricities(social_graph)
        np.testing.assert_array_equal(result.lower, result.upper)


class TestAnytimeProtocol:
    def test_snapshots_progress(self, social_graph):
        engine = IFECC(social_graph)
        resolved = [s.resolved for s in engine.steps()]
        assert resolved == sorted(resolved)
        assert resolved[-1] == social_graph.num_vertices

    def test_budgeted_run_sound(self, social_graph, social_truth):
        engine = IFECC(social_graph)
        result = engine.run_budgeted(max_bfs=3)
        assert np.all(result.lower <= social_truth)
        assert np.all(
            result.upper.astype(np.int64) >= social_truth.astype(np.int64)
        )

    def test_budget_zero(self, social_graph):
        result = IFECC(social_graph).run_budgeted(max_bfs=0)
        assert result.num_bfs <= 1

    def test_negative_budget_rejected(self, social_graph):
        with pytest.raises(InvalidParameterError):
            IFECC(social_graph).run_budgeted(max_bfs=-1)

    def test_large_budget_reaches_exact(self, social_graph, social_truth):
        result = IFECC(social_graph).run_budgeted(max_bfs=10**6)
        assert result.exact
        np.testing.assert_array_equal(result.eccentricities, social_truth)


class TestValidation:
    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            compute_eccentricities(g)

    def test_zero_references_rejected(self, example_graph):
        with pytest.raises(InvalidParameterError):
            IFECC(example_graph, num_references=0)

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParameterError):
            IFECC(Graph.from_edges([], num_vertices=0))

    def test_references_clamped_to_n(self):
        g = path_graph(3)
        result = compute_eccentricities(g, num_references=50)
        assert result.exact


class TestPerComponent:
    def test_two_components(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        result = eccentricities_per_component(g)
        truth = exact_eccentricities(g)
        np.testing.assert_array_equal(result.eccentricities, truth)
        assert result.eccentricities.tolist() == [2, 1, 2, 1, 1]

    def test_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        result = eccentricities_per_component(g)
        assert result.eccentricities[2] == 0
        assert result.eccentricities[3] == 0

    def test_connected_graph_matches_plain(self, social_graph, social_truth):
        result = eccentricities_per_component(social_graph)
        np.testing.assert_array_equal(result.eccentricities, social_truth)
