"""Weighted undirected graphs in CSR form.

The paper treats unweighted graphs, but every bound it uses (Lemmas 3.1
and 3.3) is a triangle inequality and therefore holds verbatim for
non-negative edge weights with Dijkstra distances.  This subpackage
carries IFECC over to that setting as an extension.

:class:`WeightedGraph` mirrors :class:`repro.graph.csr.Graph`; its one
:class:`~repro.graph.csr.CSR` carries ``weights`` aligned to ``indices``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.graph.csr import CSR, UndirectedCSRGraph, edge_columns, vertex_count

__all__ = ["WeightedGraph"]


class WeightedGraph(UndirectedCSRGraph):
    """An undirected graph with non-negative edge weights over one
    weighted :class:`~repro.graph.csr.CSR`.

    ``WeightedGraph(indptr, indices, weights)`` checks the arrays as
    :class:`~repro.graph.csr.CSR` does; :meth:`from_edges` builds from
    ``(u, v, w)`` triples.
    """

    __slots__ = ()

    WEIGHTED = True

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self._csr = CSR(indptr, indices, weights)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int, float]],
        num_vertices: int | None = None,
    ) -> "WeightedGraph":
        """Build from ``(u, v, weight)`` triples.

        Ids follow :func:`~repro.graph.csr.vertex_count`, self-loops
        included; self-loops are then dropped and duplicate edges keep
        the *minimum* weight.
        """
        src, dst, weights = edge_columns(edges, 3)
        n = vertex_count(src, dst, num_vertices)
        return cls.from_csr(CSR.from_edges(n, src, dst, weights))

    @property
    def weights(self) -> np.ndarray:
        """Read-only edge weights, aligned with :attr:`indices`."""
        return self._csr.weights

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, edge_weights)`` views for vertex ``v``."""
        self._check_vertex(v)
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_vertices}, m={self.num_edges})"
