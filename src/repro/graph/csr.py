"""Immutable CSR (compressed sparse row) graph representation.

All algorithms in this library operate on :class:`Graph`, an adjacency
structure stored as two numpy arrays:

``indptr``
    ``int64`` array of length ``n + 1``; the neighbors of vertex ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``.
``indices``
    ``int32`` array of length ``2m`` holding neighbor ids (each undirected
    edge appears twice, once per endpoint).

The representation matches what high-performance eccentricity codes (the
paper's C++ implementation included) use, keeps the memory footprint at the
``O(m + n)`` promised by Theorem 4.5, and lets the BFS engine in
:mod:`repro.graph.traversal` expand whole frontiers with vectorised numpy
operations.

Instances are created through :class:`repro.graph.builder.GraphBuilder` or
the convenience constructor :meth:`Graph.from_edges`; the arrays are marked
read-only so a graph can be shared freely between algorithms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro import sanitize
from repro.errors import (
    GraphConstructionError,
    InvalidParameterError,
    InvalidVertexError,
)

__all__ = ["Graph"]


def _by_degree(
    degrees: np.ndarray, count: int, strategy: str = "degree"
) -> np.ndarray:
    """The ``count`` vertices of highest ``degrees``, ties to the smaller id.

    The reference rule of Algorithm 1 line 2 and Algorithm 2 line 1,
    read by :meth:`Graph.top_degree_vertices`, PLL's degree order and
    the weighted and directed oracles (a directed graph passes its
    out-degrees).  ``strategy`` is the rule a caller asked for; those
    oracles offer no other, so anything but ``"degree"`` raises.

    :dtype top: int32
    """
    if strategy != "degree":
        raise InvalidParameterError(
            f"this graph kind supports only the 'degree' reference "
            f"strategy, got {strategy!r}"
        )
    if count < 0:
        raise GraphConstructionError("count must be non-negative")
    # Stable argsort on -degree: equal degrees keep ascending id order.
    top = np.argsort(-degrees, kind="stable")[:count].astype(np.int32)
    return top


class Graph:
    """An unweighted, undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        Row-pointer array of length ``n + 1`` (monotone non-decreasing,
        starting at 0 and ending at ``len(indices)``).
    indices:
        Flattened neighbor array; every undirected edge ``{u, v}`` must
        appear both in ``u``'s and ``v``'s slice.
    validate:
        When true (default) the arrays are checked for structural
        consistency (symmetry is checked lazily by
        :meth:`check_symmetric`).
    """

    # __weakref__ lets the per-graph BFS engine cache
    # (repro.graph.engine.engine_for) key off live graphs without
    # pinning them in memory.
    __slots__ = ("_indptr", "_indices", "_degrees", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        if validate:
            self._validate_structure(indptr, indices)
        degrees = np.diff(indptr).astype(np.int64)
        # freeze() clears the writeable flag; under REPRO_SANITIZE=1 it
        # additionally upgrades write attempts to a SanitizerError that
        # names the array and where it was constructed.
        self._indptr = sanitize.freeze(indptr, "Graph.indptr")
        self._indices = sanitize.freeze(indices, "Graph.indices")
        self._degrees = sanitize.freeze(degrees, "Graph.degrees")

    @staticmethod
    def _validate_structure(indptr: np.ndarray, indices: np.ndarray) -> None:
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphConstructionError("indptr and indices must be 1-D arrays")
        if len(indptr) == 0:
            raise GraphConstructionError("indptr must have length n + 1 >= 1")
        if indptr[0] != 0:
            raise GraphConstructionError("indptr must start at 0")
        if indptr[-1] != len(indices):
            raise GraphConstructionError(
                "indptr must end at len(indices) "
                f"({indptr[-1]} != {len(indices)})"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphConstructionError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise GraphConstructionError("neighbor ids must lie in [0, n)")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        num_vertices: int | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges and self-loops are dropped; the edge list is
        symmetrised.  ``num_vertices`` defaults to ``max id + 1``.
        """
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(num_vertices=num_vertices)
        builder.add_edges(edges)
        return builder.build()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR neighbor array (length ``2m``)."""
        return self._indices

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self._indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of vertex degrees."""
        return self._degrees

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the neighbors of ``v``."""
        self._check_vertex(v)
        return self._indices[self._indptr[v]: self._indptr[v + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def max_degree_vertex(self) -> int:
        """Vertex of maximum degree; ties broken by smallest id."""
        if self.num_vertices == 0:
            raise GraphConstructionError("graph has no vertices")
        return int(np.argmax(self._degrees))

    def top_degree_vertices(self, count: int) -> np.ndarray:
        """The ``count`` highest-degree vertices, ties broken by smaller id.

        This is the reference-node selection rule used by both PLLECC and
        IFECC (Algorithm 1 line 2 / Algorithm 2 line 1).
        """
        return _by_degree(self._degrees, count)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def check_symmetric(self) -> None:
        """Raise :class:`GraphConstructionError` unless the adjacency
        structure is symmetric (every arc has its reverse)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        dst = self._indices.astype(np.int64)
        forward = set(zip(src.tolist(), dst.tolist()))
        for u, v in forward:
            if (v, u) not in forward:
                raise GraphConstructionError(
                    f"adjacency is not symmetric: arc ({u}, {v}) has no reverse"
                )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise InvalidVertexError(v, self.num_vertices)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes used by the CSR arrays (the ``O(m + n)`` footprint)."""
        return self._indptr.nbytes + self._indices.nbytes + self._degrees.nbytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
