"""Weighted undirected graphs in CSR form.

The paper treats unweighted graphs, but every bound it uses (Lemmas 3.1
and 3.3) is a triangle inequality and therefore holds verbatim for
non-negative edge weights with Dijkstra distances.  This subpackage
carries IFECC over to that setting as an extension.

:class:`WeightedGraph` mirrors :class:`repro.graph.csr.Graph` with a
parallel ``weights`` array aligned to ``indices``.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro import sanitize
from repro.errors import GraphConstructionError, InvalidVertexError

__all__ = ["WeightedGraph"]


class WeightedGraph:
    """An undirected graph with non-negative edge weights (CSR form).

    Construct via :meth:`from_edges` with ``(u, v, w)`` triples.
    Duplicate edges keep the *minimum* weight; self-loops are dropped.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_weights",
        "_degrees",
        "__weakref__",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if len(weights) != len(indices):
            raise GraphConstructionError(
                "weights must align with indices"
            )
        if len(weights) and weights.min() < 0:
            raise GraphConstructionError("weights must be non-negative")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphConstructionError("malformed indptr")
        degrees = np.diff(indptr).astype(np.int64)
        self._indptr = sanitize.freeze(indptr, "WeightedGraph.indptr")
        self._indices = sanitize.freeze(indices, "WeightedGraph.indices")
        self._weights = sanitize.freeze(weights, "WeightedGraph.weights")
        self._degrees = sanitize.freeze(degrees, "WeightedGraph.degrees")

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int, float]],
        num_vertices: int | None = None,
    ) -> "WeightedGraph":
        """Build from ``(u, v, weight)`` triples."""
        triples = list(edges)
        if num_vertices is None:
            num_vertices = (
                max((max(u, v) for u, v, _w in triples), default=-1) + 1
            )
        best: dict = {}
        for u, v, w in triples:
            u, v = int(u), int(v)
            w = float(w)
            if u == v:
                continue
            if w < 0:
                raise GraphConstructionError("weights must be non-negative")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphConstructionError(
                    f"edge ({u}, {v}) out of range [0, {num_vertices})"
                )
            key = (min(u, v), max(u, v))
            if key not in best or w < best[key]:
                best[key] = w

        adjacency: List[List[Tuple[int, float]]] = [
            [] for _ in range(num_vertices)
        ]
        for (u, v), w in best.items():
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        indices: List[int] = []
        weights: List[float] = []
        for v, neighbors in enumerate(adjacency):
            neighbors.sort()
            indptr[v + 1] = indptr[v] + len(neighbors)
            indices.extend(t for t, _w in neighbors)
            weights.extend(w for _t, w in neighbors)
        return cls(
            indptr,
            np.asarray(indices, dtype=np.int32),
            np.asarray(weights, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, edge_weights)`` views for vertex ``v``."""
        self._check_vertex(v)
        lo, hi = self._indptr[v], self._indptr[v + 1]
        return self._indices[lo:hi], self._weights[lo:hi]

    def max_degree_vertex(self) -> int:
        if self.num_vertices == 0:
            raise GraphConstructionError("graph has no vertices")
        return int(np.argmax(self._degrees))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise InvalidVertexError(v, self.num_vertices)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_vertices}, m={self.num_edges})"
