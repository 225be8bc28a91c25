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


# ----------------------------------------------------------------------
# Every constructor holds its arrays to one CSR check
# ----------------------------------------------------------------------
#: The path 0 - 1 - 2 as a CSR; symmetric, so it is its own reverse.
PATH_INDPTR = [0, 1, 3, 4]
PATH_INDICES = [1, 0, 2, 1]

#: (indptr, indices) defects, each a malformed variant of the path.
ARRAY_DEFECTS = {
    "id-out-of-range": (PATH_INDPTR, [1, 0, 5, 1]),
    "negative-id": (PATH_INDPTR, [1, 0, -1, 1]),
    "indptr-not-from-0": ([1, 2, 3, 4], PATH_INDICES),
    "indptr-past-indices": ([0, 1, 3, 5], PATH_INDICES),
    "indptr-short-of-indices": ([0, 1, 3, 3], PATH_INDICES),
    "indptr-decreasing": ([0, 3, 1, 4], PATH_INDICES),
}


def _build(kind, indptr, indices, weights=None, reverse=None):
    """Construct ``kind`` through its public array constructor; the
    directed kind takes ``reverse`` (default: the valid path) as its
    in-CSR."""
    from repro.directed.graph import DirectedGraph
    from repro.weighted.graph import WeightedGraph

    if kind == "graph":
        return Graph(indptr, indices)
    if kind == "weighted":
        if weights is None:
            weights = np.ones(len(indices))
        return WeightedGraph(indptr, indices, weights)
    rev_indptr, rev_indices = reverse or (PATH_INDPTR, PATH_INDICES)
    return DirectedGraph(indptr, indices, rev_indptr, rev_indices)


class TestMalformedArrays:
    @pytest.mark.parametrize("kind", ["graph", "weighted", "directed"])
    def test_valid_path_accepted(self, kind):
        assert _build(kind, PATH_INDPTR, PATH_INDICES).num_vertices == 3

    @pytest.mark.parametrize("defect", sorted(ARRAY_DEFECTS))
    @pytest.mark.parametrize("kind", ["graph", "weighted", "directed"])
    def test_defect_rejected(self, kind, defect):
        indptr, indices = ARRAY_DEFECTS[defect]
        with pytest.raises(GraphConstructionError):
            _build(kind, indptr, indices)

    @pytest.mark.parametrize("defect", sorted(ARRAY_DEFECTS))
    def test_directed_in_csr_defect_rejected(self, defect):
        with pytest.raises(GraphConstructionError):
            _build(
                "directed", PATH_INDPTR, PATH_INDICES,
                reverse=ARRAY_DEFECTS[defect],
            )

    @pytest.mark.parametrize(
        "weights", [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0],
                    [1.0, -1.0, 1.0, 1.0], [np.nan, -1.0, 1.0, 1.0]],
        ids=["short", "long", "negative", "negative-after-nan"],
    )
    def test_weight_defect_rejected(self, weights):
        with pytest.raises(GraphConstructionError):
            _build("weighted", PATH_INDPTR, PATH_INDICES, weights=weights)

    def test_in_csr_must_reverse_out_csr(self):
        # A valid CSR, but 1 -> 2 is missing and 1 -> 1 appears instead.
        with pytest.raises(GraphConstructionError, match="reverse"):
            _build(
                "directed", PATH_INDPTR, PATH_INDICES,
                reverse=(PATH_INDPTR, [1, 0, 1, 1]),
            )

    def test_unknown_head_in_directed_graph(self):
        """Vertex 0's only out-arc points past the last vertex."""
        from repro.directed.graph import DirectedGraph

        with pytest.raises(GraphConstructionError):
            DirectedGraph([0, 1, 2], [5, 0], [0, 1, 2], [1, 0])

    def test_unknown_head_in_weighted_graph(self):
        from repro.weighted.graph import WeightedGraph

        with pytest.raises(GraphConstructionError):
            WeightedGraph([0, 1, 2], [5, 0], [1.0, 1.0])

    def test_in_csr_neighbour_order_is_free(self):
        """The in-CSR must hold the reversed arcs, in any row order."""
        from repro.directed.graph import DirectedGraph

        g = DirectedGraph([0, 2, 2, 2], [1, 2], [0, 0, 1, 2], [0, 0])
        assert g.num_arcs == 2


class TestEdgeListRule:
    """One input rule for edge and arc lists, whichever kind builds."""

    def _constructors(self):
        from repro.directed.graph import DirectedGraph
        from repro.graph.builder import GraphBuilder
        from repro.weighted.graph import WeightedGraph

        def builder(pairs, num_vertices):
            b = GraphBuilder(num_vertices=num_vertices)
            b.add_edges(pairs)
            return b.build()

        return {
            "builder": builder,
            "graph": lambda pairs, n: Graph.from_edges(pairs, num_vertices=n),
            "weighted": lambda pairs, n: WeightedGraph.from_edges(
                [(u, v, 1.0) for u, v in pairs], num_vertices=n
            ),
            "directed": lambda pairs, n: DirectedGraph.from_arcs(
                pairs, num_vertices=n
            ),
        }

    @pytest.mark.parametrize("kind", ["builder", "graph", "weighted", "directed"])
    @pytest.mark.parametrize(
        "pairs", [[(0, 1), (9, 9)], [(0, 1), (-1, -1)], [(0, 1), (0, 2)]],
        ids=["out-of-range-self-loop", "negative-self-loop", "out-of-range"],
    )
    def test_bad_id_rejected(self, kind, pairs):
        with pytest.raises(GraphConstructionError):
            self._constructors()[kind](pairs, 2)

    @pytest.mark.parametrize("kind", ["builder", "graph", "weighted", "directed"])
    def test_in_range_self_loop_dropped(self, kind):
        g = self._constructors()[kind]([(0, 1), (1, 1)], 2)
        assert g.num_vertices == 2
        assert g.out_csr.num_arcs == (1 if kind == "directed" else 2)

    @pytest.mark.parametrize("kind", ["builder", "graph", "directed"])
    def test_malformed_pairs_rejected(self, kind):
        with pytest.raises(GraphConstructionError):
            self._constructors()[kind]([(0, 1, 2)], None)

    @pytest.mark.parametrize("records", [[(0, 1)], [(0, 1, 1.0), (1, 2)]])
    def test_malformed_triples_rejected(self, records):
        from repro.weighted.graph import WeightedGraph

        with pytest.raises(GraphConstructionError):
            WeightedGraph.from_edges(records)

    def test_weighted_negative_self_loop_rejected(self):
        from repro.weighted.graph import WeightedGraph

        with pytest.raises(GraphConstructionError):
            WeightedGraph.from_edges([(0, 1, 1.0), (1, 1, -2.0)])

    def test_weighted_keeps_least_weight_and_sorted_neighbours(self):
        from repro.weighted.graph import WeightedGraph

        g = WeightedGraph.from_edges(
            [(0, 3, 4.0), (2, 0, 1.5), (0, 1, 2.0), (3, 0, 0.5),
             (1, 0, 7.0), (0, 2, 3.0), (2, 2, 9.0)]
        )
        ids, weights = g.neighbors(0)
        assert ids.tolist() == [1, 2, 3]
        assert weights.tolist() == [2.0, 1.5, 0.5]
        for v, w in ((1, 2.0), (2, 1.5), (3, 0.5)):
            assert g.neighbors(v)[0].tolist() == [0]
            assert g.neighbors(v)[1].tolist() == [w]
        assert g.indptr.tolist() == [0, 3, 4, 5, 6]


class TestCSRValue:
    def test_frozen(self):
        from repro.graph.csr import CSR

        csr = CSR(PATH_INDPTR, PATH_INDICES)
        with pytest.raises(AttributeError):
            csr.degrees = None
        assert not csr.degrees.flags.writeable
        assert csr.indptr.dtype == np.int64
        assert csr.indices.dtype == np.int32

    def test_pickle_round_trip_stays_frozen(self):
        import pickle

        g = triangle()
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert not copy.indices.flags.writeable
        assert copy.degrees.tolist() == g.degrees.tolist()

    def test_transpose_reverses_every_arc(self):
        from repro.graph.csr import CSR

        csr = CSR.from_arcs(4, np.array([0, 0, 2, 3]), np.array([1, 2, 1, 0]))
        rev = csr.transpose()
        assert rev.indptr.tolist() == [0, 1, 3, 4, 4]
        assert rev.indices.tolist() == [3, 0, 2, 0]
        assert csr.is_reverse_of(rev) and not csr.is_reverse_of(csr)
