"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.traversal import UNREACHED, bfs_distances, multi_source_bfs

from helpers import has_edge, random_connected_graph


@st.composite
def edge_lists(draw):
    """Random edge lists over a small vertex universe."""
    n = draw(st.integers(min_value=1, max_value=30))
    num_edges = draw(st.integers(min_value=0, max_value=60))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return n, edges


@st.composite
def connected_graphs(draw):
    """Random connected graphs (spanning tree + extras)."""
    n = draw(st.integers(min_value=2, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_connected_graph(n, extra, seed)


class TestBuilderProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_build_is_symmetric_and_clean(self, data):
        n, edges = data
        builder = GraphBuilder(num_vertices=n)
        builder.add_edges(edges)
        g = builder.build()
        assert g.num_vertices == n
        for u, v in g.edges():
            assert u != v            # no self-loops
            assert has_edge(g, v, u)  # symmetric
        # neighbor lists sorted and duplicate-free
        for v in range(n):
            nbrs = g.neighbors(v).tolist()
            assert nbrs == sorted(set(nbrs))

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_build_idempotent(self, data):
        n, edges = data
        b1 = GraphBuilder(num_vertices=n)
        b1.add_edges(edges)
        g1 = b1.build()
        b2 = GraphBuilder(num_vertices=n)
        b2.add_edges(list(g1.edges()))
        assert b2.build() == g1

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, data):
        n, edges = data
        builder = GraphBuilder(num_vertices=n)
        builder.add_edges(edges)
        g = builder.build()
        assert int(g.degrees.sum()) == 2 * g.num_edges


class TestBFSProperties:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_distance_metric_axioms(self, g):
        dist0 = bfs_distances(g, 0)
        assert dist0[0] == 0
        assert np.all(dist0 >= 0)  # connected: everything reached

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality_on_edges(self, g):
        # adjacent vertices differ by at most 1 in BFS distance
        dist = bfs_distances(g, 0)
        for u, v in g.edges():
            assert abs(int(dist[u]) - int(dist[v])) <= 1

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_bfs_symmetric(self, g):
        a = int(np.random.default_rng(0).integers(0, g.num_vertices))
        dist_a = bfs_distances(g, a)
        dist_0 = bfs_distances(g, 0)
        assert dist_a[0] == dist_0[a]

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_multi_source_is_min(self, g):
        sources = list(range(0, g.num_vertices, 3)) or [0]
        dist = multi_source_bfs(g, sources)
        singles = np.stack([bfs_distances(g, s) for s in sources])
        np.testing.assert_array_equal(dist, singles.min(axis=0))
