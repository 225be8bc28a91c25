"""Incremental construction of :class:`repro.graph.csr.Graph` objects.

:class:`GraphBuilder` accumulates edges (possibly with duplicates,
self-loops, or only one direction of each undirected edge) batch by
batch, checking each with :func:`repro.graph.csr.vertex_count`, then
builds a clean, deduplicated, symmetric graph through
:meth:`repro.graph.csr.CSR.from_edges`, the assembly every kind shares.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.graph.csr import CSR, Graph, edge_columns, vertex_count

__all__ = ["GraphBuilder"]

_NO_IDS = np.empty(0, dtype=np.int64)


class GraphBuilder:
    """Accumulates undirected edges and builds a :class:`Graph`.

    Parameters
    ----------
    num_vertices:
        When given, fixes the vertex-id universe to ``[0, num_vertices)``;
        edges referencing ids outside that range raise
        :class:`GraphConstructionError`.  When omitted, the universe is
        ``[0, max id + 1)`` at :meth:`build` time.
    """

    def __init__(self, num_vertices: int | None = None) -> None:
        vertex_count(_NO_IDS, _NO_IDS, num_vertices)  # rejects n < 0
        self._num_vertices = num_vertices
        self._sources: List[np.ndarray] = []
        self._targets: List[np.ndarray] = []

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add many edges from an iterable of pairs."""
        self.add_edge_arrays(*edge_columns(edges, 2))

    def add_edge_arrays(self, sources: np.ndarray, targets: np.ndarray) -> None:
        """Add edges given as two parallel id arrays (vector fast path);
        a batch with a bad id raises and is not buffered."""
        sources = np.asarray(sources, dtype=np.int64).ravel()
        targets = np.asarray(targets, dtype=np.int64).ravel()
        vertex_count(sources, targets, self._num_vertices)
        if len(sources) == 0:
            return
        self._sources.append(sources)
        self._targets.append(targets)

    def build(self) -> Graph:
        """Produce the final :class:`Graph`.

        Self-loops are dropped, duplicate edges collapsed, and the adjacency
        symmetrised (:meth:`repro.graph.csr.CSR.from_edges`).  Neighbor
        lists come out sorted.
        """
        src = np.concatenate(self._sources) if self._sources else _NO_IDS
        dst = np.concatenate(self._targets) if self._targets else _NO_IDS
        n = vertex_count(src, dst, self._num_vertices)
        return Graph.from_csr(CSR.from_edges(n, src, dst))
