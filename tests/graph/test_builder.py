"""Unit tests for GraphBuilder input hygiene."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.builder import GraphBuilder

from helpers import has_edge


class TestBasicBuild:
    def test_single_edge(self):
        b = GraphBuilder()
        b.add_edges([(0, 1)])
        g = b.build()
        assert g.num_vertices == 2
        assert g.num_edges == 1

    def test_add_edges_iterable(self):
        b = GraphBuilder()
        b.add_edges([(0, 1), (1, 2)])
        assert b.build().num_edges == 2

    def test_add_edges_generator(self):
        b = GraphBuilder()
        b.add_edges((i, i + 1) for i in range(4))
        assert b.build().num_edges == 4

    def test_empty_build(self):
        assert GraphBuilder().build().num_vertices == 0

    def test_fixed_num_vertices(self):
        b = GraphBuilder(num_vertices=10)
        b.add_edges([(0, 1)])
        assert b.build().num_vertices == 10


class TestHygiene:
    def test_self_loops_dropped(self):
        b = GraphBuilder()
        b.add_edges([(0, 0), (0, 1), (1, 1)])
        g = b.build()
        assert g.num_edges == 1
        assert not has_edge(g, 0, 0)

    def test_duplicates_collapsed(self):
        b = GraphBuilder()
        b.add_edges([(0, 1), (0, 1), (1, 0)])
        assert b.build().num_edges == 1

    def test_symmetrised(self):
        b = GraphBuilder()
        b.add_edges([(3, 1)])  # one direction only
        g = b.build()
        assert has_edge(g, 1, 3) and has_edge(g, 3, 1)

    def test_neighbors_sorted_after_build(self):
        b = GraphBuilder()
        b.add_edges([(0, 5), (0, 2), (0, 9)])
        assert b.build().neighbors(0).tolist() == [2, 5, 9]


class TestValidation:
    def test_negative_vertex_rejected(self):
        b = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            b.add_edges([(-1, 0)])

    def test_out_of_range_rejected_with_fixed_n(self):
        b = GraphBuilder(num_vertices=3)
        with pytest.raises(GraphConstructionError):
            b.add_edges([(0, 3)])

    def test_negative_num_vertices(self):
        with pytest.raises(GraphConstructionError):
            GraphBuilder(num_vertices=-1)

    def test_malformed_pairs(self):
        b = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            b.add_edges([(0, 1, 2)])

    def test_length_mismatch_arrays(self):
        b = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            b.add_edge_arrays(np.array([0, 1]), np.array([1]))


class TestVectorPath:
    def test_add_edge_arrays(self):
        b = GraphBuilder()
        b.add_edge_arrays(np.array([0, 1, 2]), np.array([1, 2, 3]))
        g = b.build()
        assert g.num_edges == 3
        assert g.num_vertices == 4

    def test_empty_arrays_noop(self):
        b = GraphBuilder()
        b.add_edge_arrays(np.empty(0), np.empty(0))
        assert b.build().num_vertices == 0

    def test_matches_scalar_path(self):
        pairs = [(0, 3), (3, 1), (1, 2), (2, 0), (0, 1)]
        b1 = GraphBuilder()
        b1.add_edges(pairs)
        b2 = GraphBuilder()
        arr = np.array(pairs)
        b2.add_edge_arrays(arr[:, 0], arr[:, 1])
        assert b1.build() == b2.build()


def _random_edges(seed, n=40, m=160):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(m, 2))


class TestScalarPath:
    """Edges fed one by one, in lists or in arrays build the same graph."""

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_by_edge_equals_arrays(self, seed):
        edges = _random_edges(seed)
        scalar = GraphBuilder()
        for u, v in edges.tolist():
            scalar.add_edges([(u, v)])
        vector = GraphBuilder()
        vector.add_edge_arrays(edges[:, 0], edges[:, 1])
        listed = GraphBuilder()
        listed.add_edges(edges.tolist())
        assert scalar.build() == vector.build() == listed.build()

    @pytest.mark.parametrize("num_vertices", [None, 50])
    def test_mixed_interleaved_calls(self, num_vertices):
        edges = _random_edges(7)
        want = GraphBuilder(num_vertices)
        want.add_edge_arrays(edges[:, 0], edges[:, 1])
        mixed = GraphBuilder(num_vertices)
        for start in range(0, len(edges), 20):
            chunk = edges[start: start + 20]
            if (start // 20) % 3 == 0:
                mixed.add_edge_arrays(chunk[:, 0], chunk[:, 1])
            elif (start // 20) % 3 == 1:
                mixed.add_edges(chunk.tolist())
            else:
                for u, v in chunk.tolist():
                    mixed.add_edges([(u, v)])
        assert mixed.build() == want.build()

    def test_numpy_integer_scalars(self):
        b = GraphBuilder(num_vertices=4)
        b.add_edges([(np.int64(0), np.int32(3))])
        b.add_edges([(np.uint8(1), np.int16(2))])
        edges = np.array([1, 2, 3])
        b.add_edges([(edges[0], edges[2])])
        g = b.build()
        assert has_edge(g, 0, 3) and has_edge(g, 1, 2) and has_edge(g, 1, 3)
        assert g.num_edges == 3

    def test_numpy_scalar_out_of_range_rejected(self):
        b = GraphBuilder(num_vertices=3)
        with pytest.raises(GraphConstructionError):
            b.add_edges([(np.int64(1), np.int64(3))])
        with pytest.raises(GraphConstructionError):
            b.add_edges([(np.int64(-2), np.int64(1))])
        assert b.build().num_edges == 0

    def test_rejected_edge_is_not_buffered(self):
        b = GraphBuilder(num_vertices=3)
        b.add_edges([(0, 1)])
        with pytest.raises(GraphConstructionError):
            b.add_edges([(2, 5)])
        assert b.build().num_edges == 1

    def test_reuse_after_build(self):
        b = GraphBuilder()
        b.add_edges([(0, 1)])
        b.add_edge_arrays(np.array([1, 2]), np.array([2, 3]))
        first = b.build()
        assert b.build() == first
        b.add_edges([(3, 4)])
        grown = b.build()
        assert grown.num_edges == first.num_edges + 1
        assert has_edge(grown, 3, 4)
        fresh = GraphBuilder()
        fresh.add_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert grown == fresh.build()
