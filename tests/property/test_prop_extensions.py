"""Property-based tests for the extension modules (extremes, paths,
weighted, directed)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extremes import radius_and_diameter
from repro.directed.eccentricity import (
    directed_ifecc_eccentricities,
    directed_radius_and_diameter,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.graph.paths import bfs_parents
from repro.graph.traversal import bfs_distances
from repro.weighted.eccentricity import (
    naive_weighted_eccentricities,
    weighted_eccentricities,
)
from repro.weighted.graph import WeightedGraph

from helpers import (
    exact_eccentricities,
    has_edge,
    random_connected_graph,
    shortest_path,
)


@st.composite
def small_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=45))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_connected_graph(n, extra, seed)


@st.composite
def weighted_graphs(draw):
    base = draw(small_connected_graphs())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    triples = [
        (u, v, int(rng.integers(1, 10))) for u, v in base.edges()
    ]
    return WeightedGraph.from_edges(
        triples, num_vertices=base.num_vertices
    )


@st.composite
def strongly_connected_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=35))
    extra = draw(st.integers(min_value=0, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            arcs.append((int(u), int(v)))
    return DirectedGraph.from_arcs(arcs, num_vertices=n)


class TestExtremesProperties:
    @given(small_connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_extremes_match_oracle(self, g):
        truth = exact_eccentricities(g)
        result = radius_and_diameter(g)
        assert result.radius == int(truth.min())
        assert result.diameter == int(truth.max())
        assert result.radius <= result.diameter <= 2 * result.radius


class TestPathProperties:
    @given(small_connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_paths_realise_distances(self, g):
        dist = bfs_distances(g, 0)
        for target in range(0, g.num_vertices, 5):
            path = shortest_path(g, 0, target)
            assert len(path) - 1 == dist[target]
            for u, v in zip(path, path[1:]):
                assert has_edge(g, u, v)

    @given(small_connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_parent_tree_is_shortest(self, g):
        dist, parent = bfs_parents(g, 0)
        for v in range(1, g.num_vertices):
            assert dist[int(parent[v])] == dist[v] - 1


class TestWeightedProperties:
    @given(weighted_graphs())
    @settings(max_examples=20, deadline=None)
    def test_weighted_ifecc_matches_oracle(self, g):
        truth = naive_weighted_eccentricities(g)
        result = weighted_eccentricities(g)
        np.testing.assert_allclose(result.eccentricities, truth)

    @given(weighted_graphs())
    @settings(max_examples=20, deadline=None)
    def test_weighted_radius_diameter_inequality(self, g):
        truth = naive_weighted_eccentricities(g)
        assert truth.min() <= truth.max() <= 2 * truth.min() + 1e-9


class TestDirectedProperties:
    @given(strongly_connected_digraphs())
    @settings(max_examples=20, deadline=None)
    def test_directed_matches_oracle(self, g):
        # The directed extremes driver: the framework loop over
        # forward + backward probe pairs.
        truth = naive_directed_eccentricities(g)
        extremes = directed_radius_and_diameter(g)
        assert extremes.radius == truth.min()
        assert extremes.diameter == truth.max()
        assert truth[extremes.center_vertex] == truth.min()
        assert truth[extremes.peripheral_vertex] == truth.max()

    @given(strongly_connected_digraphs())
    @settings(max_examples=20, deadline=None)
    def test_directed_triangle_inequality(self, g):
        from repro.directed.traversal import forward_bfs

        d0 = forward_bfs(g, 0).astype(np.int64)
        for mid in range(0, g.num_vertices, 7):
            dmid = forward_bfs(g, mid).astype(np.int64)
            assert np.all(d0 <= d0[mid] + dmid)


class TestMSBFSProperties:
    @given(small_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_msbfs_rows_equal_bfs(self, g):
        from repro.graph import batch_distance_rows

        sources = list(range(0, g.num_vertices, 3))
        matrix = batch_distance_rows(g, sources)
        for row, s in enumerate(sources):
            np.testing.assert_array_equal(
                matrix[row], bfs_distances(g, s)
            )

    @given(small_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_msbfs_eccentricities_match_oracle(self, g):
        from repro.graph.batch import ecc_batch

        np.testing.assert_array_equal(
            ecc_batch(g, np.arange(g.num_vertices)),
            exact_eccentricities(g),
        )


class TestDirectedIFECCProperties:
    @given(strongly_connected_digraphs())
    @settings(max_examples=20, deadline=None)
    def test_directed_ifecc_matches_oracle(self, g):
        truth = naive_directed_eccentricities(g)
        result = directed_ifecc_eccentricities(g)
        np.testing.assert_array_equal(result.eccentricities, truth)
