"""Directed graphs in dual-CSR form.

The paper restricts itself to undirected graphs, but its related work
(Akiba, Iwata, Kawata 2015 [2]) computes diameters of large *directed*
real graphs with the same bound-propagation idea.  This subpackage
extends the library accordingly.

A :class:`DirectedGraph` stores the forward adjacency (out-edges) and
the reverse adjacency (in-edges) as two CSRs, so both forward and
backward BFS are cheap — directed IFECC's reference and the extremes
driver's probes need one of each (see :mod:`repro.directed.eccentricity`).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.errors import GraphConstructionError, InvalidVertexError
from repro.graph.csr import CSR, Graph, edge_columns, vertex_count

__all__ = ["DirectedGraph"]


class DirectedGraph:
    """A directed graph over an out-CSR and the in-CSR that reverses it.

    The constructor checks both CSRs' arrays and that the in-CSR holds
    the out-arcs reversed; the other constructors transpose.
    """

    __slots__ = ("_out", "_in", "__weakref__")

    def __init__(
        self,
        fwd_indptr: np.ndarray,
        fwd_indices: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
    ) -> None:
        self._out = CSR(fwd_indptr, fwd_indices)
        self._in = CSR(rev_indptr, rev_indices)
        if not self._out.is_reverse_of(self._in):
            raise GraphConstructionError(
                "the in-CSR is not the out-CSR reversed"
            )

    @classmethod
    def _from_pair(cls, out: CSR, in_csr: CSR) -> "DirectedGraph":
        """The graph over ``out`` and ``in_csr``, trusted to be each
        other's reverse: built by transposing, or opened from a store,
        whose verify checks them."""
        graph = cls.__new__(cls)
        graph._out, graph._in = out, in_csr
        return graph

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[Tuple[int, int]],
        num_vertices: int | None = None,
    ) -> "DirectedGraph":
        """Build from ``(u, v)`` arcs (u -> v).  Ids follow the same rule
        as :class:`~repro.graph.builder.GraphBuilder`; duplicates collapse
        and self-loops are dropped."""
        src, dst = edge_columns(arcs, 2)
        out = CSR.from_arcs(vertex_count(src, dst, num_vertices), src, dst)
        return cls._from_pair(out, out.transpose())

    @classmethod
    def from_undirected(cls, graph: Graph) -> "DirectedGraph":
        """Lift an undirected :class:`repro.graph.csr.Graph` (each edge
        becomes two arcs)."""
        csr = graph.out_csr
        out = CSR.from_arcs(csr.num_vertices, csr.arc_sources(), csr.indices)
        return cls._from_pair(out, out.transpose())

    # ------------------------------------------------------------------
    @property
    def out_csr(self) -> CSR:
        """The out-adjacency: ``v``'s slice lists the heads of its arcs."""
        return self._out

    @property
    def in_csr(self) -> CSR:
        """The in-adjacency: ``v``'s slice lists the tails of its arcs."""
        return self._in

    @property
    def num_vertices(self) -> int:
        return self._out.num_vertices

    @property
    def num_arcs(self) -> int:
        return self._out.num_arcs

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise InvalidVertexError(v, self.num_vertices)

    def __repr__(self) -> str:
        return (
            f"DirectedGraph(n={self.num_vertices}, arcs={self.num_arcs})"
        )
