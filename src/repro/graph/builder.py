"""Incremental construction of :class:`repro.graph.csr.Graph` objects.

:class:`GraphBuilder` accumulates edges (possibly with duplicates,
self-loops, or only one direction of each undirected edge), then produces a
clean, deduplicated, symmetric CSR graph.  The builder is the single choke
point through which every loader, generator, and test constructs graphs, so
input hygiene lives here and nowhere else.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.csr import Graph

__all__ = ["GraphBuilder"]


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
        if num_vertices is not None and num_vertices < 0:
            raise GraphConstructionError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._sources: List[np.ndarray] = []
        self._targets: List[np.ndarray] = []
        self._count = 0

    @property
    def num_pending_edges(self) -> int:
        """Number of edge records added so far (before dedup)."""
        return self._count

    def add_edge(self, u: int, v: int) -> None:
        """Add one undirected edge ``{u, v}``."""
        self.add_edge_arrays(
            np.asarray([u], dtype=np.int64), np.asarray([v], dtype=np.int64)
        )

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add many edges from an iterable of pairs."""
        pairs = list(edges)
        if not pairs:
            return
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphConstructionError("edges must be (u, v) pairs")
        self.add_edge_arrays(arr[:, 0], arr[:, 1])

    def add_edge_arrays(self, sources: np.ndarray, targets: np.ndarray) -> None:
        """Add edges given as two parallel id arrays (vector fast path)."""
        sources = np.asarray(sources, dtype=np.int64).ravel()
        targets = np.asarray(targets, dtype=np.int64).ravel()
        if len(sources) != len(targets):
            raise GraphConstructionError(
                "sources and targets must have equal length"
            )
        if len(sources) == 0:
            return
        if sources.min() < 0 or targets.min() < 0:
            raise GraphConstructionError("vertex ids must be non-negative")
        if self._num_vertices is not None:
            hi = max(int(sources.max()), int(targets.max()))
            if hi >= self._num_vertices:
                raise GraphConstructionError(
                    f"vertex id {hi} out of fixed range "
                    f"[0, {self._num_vertices})"
                )
        self._sources.append(sources)
        self._targets.append(targets)
        self._count += len(sources)

    def build(self) -> Graph:
        """Produce the final :class:`Graph`.

        Self-loops are dropped, duplicate edges collapsed, and the adjacency
        symmetrised.  Neighbor lists come out sorted.
        """
        if self._sources:
            src = np.concatenate(self._sources)
            dst = np.concatenate(self._targets)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)

        n = self._num_vertices
        if n is None:
            n = int(max(src.max(), dst.max())) + 1 if len(src) else 0

        keep = src != dst  # drop self-loops
        src, dst = src[keep], dst[keep]

        # Symmetrise, then dedup via a canonical (min, max) key.
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        if len(lo):
            key = lo * n + hi
            __, first = np.unique(key, return_index=True)
            lo, hi = lo[first], hi[first]

        all_src = np.concatenate([lo, hi])
        all_dst = np.concatenate([hi, lo])

        order = np.lexsort((all_dst, all_src))
        all_src = all_src[order]
        all_dst = all_dst[order]

        counts = np.bincount(all_src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Graph(indptr, all_dst.astype(np.int32), validate=False)
