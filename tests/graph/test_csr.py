"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError, InvalidVertexError
from repro.graph.csr import Graph

from helpers import graph_from_adjacency, has_edge


def triangle() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_from_edges_basic(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_from_edges_num_vertices_extends(self):
        g = Graph.from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.num_edges == 1
        assert g.degree(4) == 0

    def test_from_adjacency(self):
        g = graph_from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert has_edge(g, 0, 1) and has_edge(g, 0, 2)

    def test_from_adjacency_rejects_asymmetric(self):
        with pytest.raises(GraphConstructionError):
            graph_from_adjacency([[1], []])

    def test_empty_graph(self):
        g = Graph.from_edges([], num_vertices=0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_isolated_vertices_only(self):
        g = Graph.from_edges([], num_vertices=4)
        assert g.num_vertices == 4
        assert list(g.edges()) == []

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphConstructionError):
            Graph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_indptr_must_match_indices_length(self):
        with pytest.raises(GraphConstructionError):
            Graph(np.array([0, 3]), np.array([0], dtype=np.int32))

    def test_indptr_monotone(self):
        with pytest.raises(GraphConstructionError):
            Graph(
                np.array([0, 2, 1, 2]),
                np.array([1, 0], dtype=np.int32),
            )

    def test_neighbor_ids_in_range(self):
        with pytest.raises(GraphConstructionError):
            Graph(np.array([0, 1]), np.array([5], dtype=np.int32))


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph.from_edges([(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_degree(self):
        g = triangle()
        assert all(g.degree(v) == 2 for v in range(3))

    def test_degrees_array(self):
        g = Graph.from_edges([(0, 1), (0, 2)])
        assert g.degrees.tolist() == [2, 1, 1]

    def test_has_edge(self):
        g = triangle()
        assert has_edge(g, 0, 1)
        assert has_edge(g, 1, 0)

    def test_has_edge_absent(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert not has_edge(g, 0, 2)

    def test_edges_iterates_each_once(self):
        g = triangle()
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_invalid_vertex_raises(self):
        g = triangle()
        with pytest.raises(InvalidVertexError):
            g.neighbors(3)
        with pytest.raises(InvalidVertexError):
            g.degree(-1)

    def test_arrays_read_only(self):
        g = triangle()
        with pytest.raises(ValueError):
            # reprolint: disable=R1 (asserting the read-only flag works)
            g.indices[0] = 5
        with pytest.raises(ValueError):
            # reprolint: disable=R1 (asserting the read-only flag works)
            g.indptr[0] = 1


class TestDegreeSelection:
    def test_max_degree_vertex(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        assert g.max_degree_vertex() == 0

    def test_max_degree_tie_smallest_id(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert g.max_degree_vertex() == 0

    def test_top_degree_vertices(self, example_graph):
        # Example 3.2: v13 (id 12) and v7 (id 6) have the highest degrees.
        top = example_graph.top_degree_vertices(2)
        assert top.tolist() == [12, 6]

    def test_top_degree_count_clamped(self):
        g = triangle()
        assert len(g.top_degree_vertices(10)) == 3

    def test_top_degree_negative_count(self):
        with pytest.raises(GraphConstructionError):
            triangle().top_degree_vertices(-1)


class TestMisc:
    def test_equality(self):
        assert triangle() == triangle()

    def test_inequality(self):
        assert triangle() != Graph.from_edges([(0, 1), (1, 2)])

    def test_memory_bytes_positive(self):
        assert triangle().memory_bytes() > 0

    def test_repr(self):
        assert "n=3" in repr(triangle())

    def test_check_symmetric_passes(self):
        triangle().check_symmetric()
