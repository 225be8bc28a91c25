"""Unit tests for the BFS-framework loop and its pick rules."""

import numpy as np
import pytest

from repro.baselines.boundecc import boundecc_eccentricities
from repro.baselines.henderson import opex_eccentricities
from repro.core.bounds import BoundState
from repro.core.extremes import radius_and_diameter
from repro.core.framework import (
    ffo_order,
    framework_eccentricities,
    largest_gap,
    takes_kosters,
)
from repro.core.ifecc import eccentricities_per_component
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.generators import path_graph, star_graph
from repro.graph.traversal import bfs_distances


def _random_rule(seed):
    rng = np.random.default_rng(seed)
    return lambda bounds, unresolved: int(
        unresolved[rng.integers(0, len(unresolved))]
    )


def _degree_rule(degrees):
    return lambda bounds, unresolved: int(
        unresolved[np.lexsort((unresolved, -degrees[unresolved]))[0]]
    )


# Pick-rule factories by id.  "random" and "degree" are arbitrary rules
# with no caller in the package: the loop must be exact under any rule
# that returns an unresolved vertex.
RULES = {
    "alternating": lambda graph: takes_kosters(graph.degrees),
    "degree": lambda graph: _degree_rule(graph.degrees),
    "ffo": ffo_order,
    "gap": lambda graph: largest_gap,
    "random": lambda graph: _random_rule(seed=0),
}
BASELINES = [boundecc_eccentricities, opex_eccentricities]


class TestFrameworkExactness:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_all_selectors_exact_on_example(
        self, rule, example_graph, example_eccentricities
    ):
        result = framework_eccentricities(
            example_graph, RULES[rule](example_graph), rule
        )
        assert result.exact
        np.testing.assert_array_equal(
            result.eccentricities, example_eccentricities
        )

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_all_selectors_exact_on_social(
        self, rule, social_graph, social_truth
    ):
        result = framework_eccentricities(
            social_graph, RULES[rule](social_graph), rule
        )
        np.testing.assert_array_equal(result.eccentricities, social_truth)

    def test_framework_beats_naive_bfs_count(self, social_graph):
        result = boundecc_eccentricities(social_graph)
        assert result.num_bfs < social_graph.num_vertices

    def test_lemma33_cap_is_load_bearing(self, social_graph):
        # The FFO order alone (plugged into the plain framework, which
        # only applies Lemma 3.1) is NOT enough — IFECC's efficiency
        # comes from combining the order with Lemma 3.3's tail cap.
        from repro.core.ifecc import compute_eccentricities

        without_cap = framework_eccentricities(
            social_graph, ffo_order(social_graph), "FFO-only"
        )
        with_cap = compute_eccentricities(social_graph)
        assert with_cap.num_bfs < without_cap.num_bfs / 2


class TestBudget:
    def test_budget_stops_early(self, social_graph):
        for baseline in BASELINES:
            result = baseline(social_graph, max_bfs=2)
            assert result.num_bfs == 2
            assert not result.exact

    def test_budget_result_is_sound(self, social_graph, social_truth):
        for baseline in BASELINES:
            result = baseline(social_graph, max_bfs=3)
            assert np.all(result.lower <= social_truth)
            assert np.all(
                result.upper.astype(np.int64)
                >= social_truth.astype(np.int64)
            )


class TestSelectors:
    def test_selectors_return_unresolved(self, social_graph, social_truth):
        state = BoundState(social_graph.num_vertices)
        for v in range(0, social_graph.num_vertices, 2):
            state.set_exact(v, social_truth[v])
        unresolved = np.flatnonzero(~state.resolved_mask())
        for name, factory in sorted(RULES.items()):
            v = factory(social_graph)(state, unresolved)
            assert v in unresolved, name

    def test_alternating_switches_phase(self):
        # After probing vertex 0 of a 5-path, lower = [4, 3, 2, 3, 4]
        # and upper = [4, 5, 6, 7, 8]: the smallest lower bound is the
        # center 2, the largest upper bound the far end 4.
        g = path_graph(5)
        state = BoundState(5)
        state.set_exact(0, 4)
        dist = bfs_distances(g, 0)
        state.apply_lemma31(dist, dist, 4)
        unresolved = np.flatnonzero(~state.resolved_mask())
        pick = takes_kosters(g.degrees)
        assert pick(state, unresolved) == 2
        assert pick(state, unresolved) == 4
        # Untouched bounds tie everywhere; the degree tie-break wins.
        hub_pick = takes_kosters(star_graph(5).degrees)
        assert hub_pick(BoundState(5), np.arange(5)) == 0

    def test_ffo_selector_starts_at_max_degree(self, example_graph):
        pick = ffo_order(example_graph)
        state = BoundState(example_graph.num_vertices)
        unresolved = np.arange(example_graph.num_vertices)
        assert pick(state, unresolved) == 12  # v13

    def test_ffo_selector_then_farthest(self, example_graph):
        pick = ffo_order(example_graph)
        state = BoundState(example_graph.num_vertices)
        unresolved = np.arange(example_graph.num_vertices)
        first = pick(state, unresolved)
        state.set_exact(first, 4)
        second = pick(state, unresolved[unresolved != first])
        assert second == 0  # v1, the FFO front of v13


class TestValidation:
    def test_empty_graph_rejected(self):
        for baseline in BASELINES:
            with pytest.raises(InvalidParameterError):
                baseline(Graph.from_edges([], num_vertices=0))

    def test_single_vertex(self):
        for baseline in BASELINES:
            result = baseline(Graph.from_edges([], num_vertices=1))
            assert result.eccentricities.tolist() == [0]


DISCONNECTED = {
    # (edges, num_vertices, traversals BoundECC and OPEX spend)
    "path-and-edge": ([(0, 1), (1, 2), (2, 3), (4, 5)], 6, 5),
    "triangle-square-isolated": (
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)],
        8,
        8,
    ),
}


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_disconnected_graph(name):
    # The bound-and-select baselines resolve each component on its own
    # (Lemma 3.1 leaves unreached vertices untouched); only the extremes
    # driver insists on a connected graph.
    edges, n, traversals = DISCONNECTED[name]
    graph = Graph.from_edges(edges, num_vertices=n)
    truth = eccentricities_per_component(graph).eccentricities
    for baseline in BASELINES:
        result = baseline(graph)
        assert result.exact
        assert result.num_bfs == traversals
        np.testing.assert_array_equal(result.eccentricities, truth)
        np.testing.assert_array_equal(result.upper, truth)
    with pytest.raises(DisconnectedGraphError):
        radius_and_diameter(graph)
