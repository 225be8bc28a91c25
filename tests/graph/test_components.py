"""Unit tests for connected-component utilities."""

import numpy as np
import pytest

from repro.graph.components import (
    connected_components,
    largest_connected_component,
    split_components,
)
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators import cycle_graph, path_graph

from helpers import exact_eccentricities, is_connected


def two_components() -> Graph:
    # component A: path 0-1-2; component B: triangle 3-4-5.
    return Graph.from_edges([(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])


class TestLabelling:
    def test_connected_graph_single_label(self):
        labelling = connected_components(cycle_graph(5))
        assert labelling.num_components == 1
        assert labelling.sizes.tolist() == [5]

    def test_two_components(self):
        labelling = connected_components(two_components())
        assert labelling.num_components == 2
        assert sorted(labelling.sizes.tolist()) == [3, 3]

    def test_labels_partition(self):
        labelling = connected_components(two_components())
        assert labelling.labels[0] == labelling.labels[1] == labelling.labels[2]
        assert labelling.labels[3] == labelling.labels[4] == labelling.labels[5]
        assert labelling.labels[0] != labelling.labels[3]

    def test_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        labelling = connected_components(g)
        assert labelling.num_components == 3

    def test_largest_id(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        labelling = connected_components(g)
        assert labelling.sizes[labelling.largest()] == 3


    @pytest.mark.parametrize(
        "n, m, span",
        [(5000, 3000, 5000), (200, 900, 60)],
        ids=["scattered", "dense-block"],
    )
    def test_many_components_match_scipy(self, n, m, span):
        # Random edges among the first ``span`` vertices, the rest
        # isolated.  "scattered": thousands of components of every small
        # size, interleaved by vertex id.  "dense-block": one level of
        # the sweep reaches unlabelled vertices over more arcs than the
        # graph has vertices.
        scipy_cc = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(0)
        builder = GraphBuilder(n)
        builder.add_edge_arrays(
            rng.integers(0, span, m), rng.integers(0, span, m)
        )
        graph = builder.build()
        adjacency = sparse.csr_matrix(
            (np.ones(len(graph.indices)), graph.indices, graph.indptr),
            shape=(n, n),
        )
        count, theirs = scipy_cc.connected_components(adjacency, directed=False)
        # Renumber scipy's ids by each component's smallest vertex: the
        # order connected_components promises.
        _ids, first = np.unique(theirs, return_index=True)
        rank = np.empty(count, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(count)
        labelling = connected_components(graph)
        assert labelling.num_components == count > 100
        assert labelling.labels.dtype == np.int32
        assert np.array_equal(labelling.labels, rank[theirs])
        assert np.array_equal(
            labelling.sizes, np.bincount(rank[theirs], minlength=count)
        )

    def test_ids_follow_smallest_vertex(self):
        # Isolated 0, then the component {1, 4}, isolated 2 and 3.
        graph = Graph.from_edges([(4, 1)], num_vertices=5)
        labelling = connected_components(graph)
        assert labelling.labels.tolist() == [0, 1, 2, 3, 1]
        assert labelling.sizes.tolist() == [1, 2, 1, 1]


class TestIsConnected:
    def test_connected(self):
        assert is_connected(path_graph(4))

    def test_disconnected(self):
        assert not is_connected(two_components())

    def test_single_vertex(self):
        assert is_connected(Graph.from_edges([], num_vertices=1))

    def test_empty(self):
        assert is_connected(Graph.from_edges([], num_vertices=0))


class TestLargestComponent:
    def test_extracts_largest(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (2, 4)])
        sub, ids = largest_connected_component(g)
        assert sub.num_vertices == 3
        assert sorted(ids.tolist()) == [2, 3, 4]

    def test_subgraph_edges_preserved(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (2, 4)])
        sub, ids = largest_connected_component(g)
        # the triangle structure survives the remap
        assert sub.num_edges == 3
        assert all(sub.degree(v) == 2 for v in range(3))

    def test_already_connected_identity_shape(self):
        g = cycle_graph(6)
        sub, ids = largest_connected_component(g)
        assert sub == g
        assert ids.tolist() == list(range(6))

    def test_eccentricities_preserved_under_remap(self):
        g = Graph.from_edges([(5, 6), (6, 7), (0, 1)])
        sub, ids = largest_connected_component(g)
        ecc = exact_eccentricities(sub)
        assert sorted(ecc.tolist()) == [1, 2, 2]


class TestSplitComponents:
    def test_split_count(self):
        parts = split_components(two_components())
        assert len(parts) == 2

    def test_largest_first(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        parts = split_components(g)
        assert parts[0][0].num_vertices == 3
        assert parts[1][0].num_vertices == 2

    def test_ids_cover_all_vertices(self):
        parts = split_components(two_components())
        seen = np.concatenate([ids for _g, ids in parts])
        assert sorted(seen.tolist()) == list(range(6))

    def test_each_part_connected(self):
        parts = split_components(two_components())
        assert all(is_connected(g) for g, _ids in parts)
