"""Directed graphs in dual-CSR form.

The paper restricts itself to undirected graphs, but its related work
(Akiba, Iwata, Kawata 2015 [2]) computes diameters of large *directed*
real graphs with the same bound-propagation idea.  This subpackage
extends the library accordingly.

A :class:`DirectedGraph` stores both the forward adjacency (out-edges)
and the reverse adjacency (in-edges) as CSR arrays, so both forward and
backward BFS are cheap — directed IFECC's reference and the extremes
driver's probes need one of each (see :mod:`repro.directed.eccentricity`).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro import sanitize
from repro.errors import GraphConstructionError, InvalidVertexError
from repro.graph.csr import Graph

__all__ = ["DirectedGraph"]


def _build_csr(
    n: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst.astype(np.int32)


class DirectedGraph:
    """A directed graph with forward and reverse CSR adjacency."""

    __slots__ = (
        "_fwd_indptr",
        "_fwd_indices",
        "_rev_indptr",
        "_rev_indices",
        "__weakref__",
    )

    def __init__(
        self,
        fwd_indptr: np.ndarray,
        fwd_indices: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
    ) -> None:
        self._fwd_indptr = np.ascontiguousarray(fwd_indptr, dtype=np.int64)
        self._fwd_indices = np.ascontiguousarray(fwd_indices, dtype=np.int32)
        self._rev_indptr = np.ascontiguousarray(rev_indptr, dtype=np.int64)
        self._rev_indices = np.ascontiguousarray(rev_indices, dtype=np.int32)
        if len(self._fwd_indices) != len(self._rev_indices):
            raise GraphConstructionError(
                "forward and reverse arc counts differ"
            )
        self._fwd_indptr = sanitize.freeze(
            self._fwd_indptr, "DirectedGraph.fwd_indptr"
        )
        self._fwd_indices = sanitize.freeze(
            self._fwd_indices, "DirectedGraph.fwd_indices"
        )
        self._rev_indptr = sanitize.freeze(
            self._rev_indptr, "DirectedGraph.rev_indptr"
        )
        self._rev_indices = sanitize.freeze(
            self._rev_indices, "DirectedGraph.rev_indices"
        )

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[Tuple[int, int]],
        num_vertices: int | None = None,
    ) -> "DirectedGraph":
        """Build from ``(u, v)`` arcs (u -> v).  Duplicates collapse;
        self-loops are dropped."""
        pairs = [(int(u), int(v)) for u, v in arcs]
        if num_vertices is None:
            num_vertices = (
                max((max(u, v) for u, v in pairs), default=-1) + 1
            )
        seen = set()
        clean: List[Tuple[int, int]] = []
        for u, v in pairs:
            if u == v or (u, v) in seen:
                continue
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphConstructionError(
                    f"arc ({u}, {v}) out of range [0, {num_vertices})"
                )
            seen.add((u, v))
            clean.append((u, v))
        if clean:
            arr = np.asarray(clean, dtype=np.int64)
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = dst = np.empty(0, dtype=np.int64)
        fwd_indptr, fwd_indices = _build_csr(num_vertices, src, dst)
        rev_indptr, rev_indices = _build_csr(num_vertices, dst, src)
        return cls(fwd_indptr, fwd_indices, rev_indptr, rev_indices)

    @classmethod
    def from_undirected(cls, graph: Graph) -> "DirectedGraph":
        """Lift an undirected :class:`repro.graph.csr.Graph` (each edge
        becomes two arcs)."""
        n = graph.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        dst = graph.indices.astype(np.int64)
        fwd_indptr, fwd_indices = _build_csr(n, src, dst)
        rev_indptr, rev_indices = _build_csr(n, dst, src)
        return cls(fwd_indptr, fwd_indices, rev_indptr, rev_indices)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._fwd_indptr) - 1

    @property
    def num_arcs(self) -> int:
        return len(self._fwd_indices)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._fwd_indptr)

    def forward_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the out-adjacency."""
        return self._fwd_indptr, self._fwd_indices

    def backward_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the in-adjacency."""
        return self._rev_indptr, self._rev_indices

    def csr_pair(
        self,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """(out-CSR, in-CSR): the pair a forward BFS engine reads."""
        return self.forward_view(), self.backward_view()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise InvalidVertexError(v, self.num_vertices)

    def __repr__(self) -> str:
        return (
            f"DirectedGraph(n={self.num_vertices}, arcs={self.num_arcs})"
        )
