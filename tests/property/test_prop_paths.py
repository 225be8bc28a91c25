"""Property: ``bfs_parents`` equals a queue BFS keeping smallest-id parents.

``repro.graph.paths.bfs_parents`` reads one engine run and derives every
parent from the arcs that climb one level.  The reference here is the
textbook one: a ``deque`` BFS over neighbor lists that, whenever a vertex
is reached again at the same level, keeps the smaller parent.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph
from repro.graph.generators import grid_graph, path_graph, star_graph
from repro.graph.paths import bfs_parents
from repro.sentinels import UNREACHED


def deque_parents(graph, source):
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u]:indptr[u + 1]].tolist():
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
            elif dist[v] == dist[u] + 1 and u < parent[v]:
                parent[v] = u
    return dist, parent


def shuffled_neighbors(graph, seed):
    """``graph`` with every neighbor list in a random order."""
    rng = np.random.default_rng(seed)
    indptr = np.asarray(graph.indptr)
    indices = np.array(graph.indices)
    for v in range(graph.num_vertices):
        rng.shuffle(indices[indptr[v]:indptr[v + 1]])
    return Graph(indptr.copy(), indices)


@st.composite
def graphs_and_sources(draw):
    """A random, possibly disconnected graph (neighbor lists in random
    order) and a source."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=90,
        )
    )
    graph = Graph.from_edges(edges, num_vertices=n)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return shuffled_neighbors(graph, seed), source


def assert_same_tree(graph, source):
    dist, parent = bfs_parents(graph, source)
    want_dist, want_parent = deque_parents(graph, source)
    assert dist.dtype == np.int32 and parent.dtype == np.int64
    assert np.array_equal(dist, want_dist), source
    assert np.array_equal(parent, want_parent), source


@settings(max_examples=80, deadline=None)
@given(gs=graphs_and_sources())
def test_parents_match_deque_bfs(gs):
    graph, source = gs
    assert_same_tree(graph, source)


def _disconnected():
    # A triangle, a path 3-4-5-6, a 4-cycle 7..10 and an isolated 11.
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6),
         (7, 8), (8, 9), (9, 10), (10, 7)],
        num_vertices=12,
    )


@pytest.mark.parametrize(
    "graph",
    [star_graph(9), grid_graph(7, 5), path_graph(17), _disconnected()],
    ids=["star", "grid", "path", "disconnected"],
)
def test_parents_match_deque_bfs_from_every_source(graph):
    for source in range(graph.num_vertices):
        assert_same_tree(graph, source)
