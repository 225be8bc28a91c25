"""One frozen CSR adjacency, and the undirected :class:`Graph` over it.

A :class:`CSR` (compressed sparse row) holds ``indptr`` (``int64``,
length ``n + 1``; the arcs leaving ``v`` are
``indices[indptr[v]:indptr[v + 1]]``), ``indices`` (``int32`` arc
heads; an undirected edge is two arcs), the derived ``degrees``
(``int64``) and optional ``weights`` (``float64``, aligned with
``indices``).  :class:`Graph` and
:class:`~repro.weighted.graph.WeightedGraph` hold one CSR;
:class:`~repro.directed.graph.DirectedGraph` holds an out-CSR and an
in-CSR.  Every kind exposes the pair as ``out_csr`` / ``in_csr`` (an
undirected graph's are its one CSR, the same object), and that pair is
all the engines, the store and the run-record fingerprint read.

This module is the only code that assembles, checks or freezes CSR
arrays (reprolint R1): the :class:`CSR` constructor checks arrays,
:meth:`CSR.from_arcs` turns arc lists into sorted CSR and
:meth:`CSR.trusted` wraps the store's mapped arrays without an
``O(m)`` pass.  The layout is the one high-performance eccentricity
codes use and keeps the footprint at Theorem 4.5's ``O(m + n)``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.errors import (
    GraphConstructionError,
    InvalidParameterError,
    InvalidVertexError,
)

__all__ = [
    "CSR",
    "Graph",
    "UndirectedCSRGraph",
    "edge_columns",
    "vertex_count",
]


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


def edge_columns(
    records: Iterable[Sequence[float]], width: int
) -> Tuple[np.ndarray, ...]:
    """``int64`` ``(src, dst)`` of ``(u, v)`` pairs (``width`` 2), plus
    ``float64`` weights of ``(u, v, w)`` triples (``width`` 3); raises
    :class:`GraphConstructionError` unless every record has ``width``
    fields."""
    rows = list(records)
    try:
        table = np.asarray(rows, dtype=np.float64 if width == 3 else np.int64)
        # Fails unless the records hold len(rows) * width fields in all.
        table = table.reshape(len(rows), width)
    except (TypeError, ValueError) as exc:
        raise GraphConstructionError(
            f"edges must be {width}-field records"
        ) from exc
    ids = table[:, :2].astype(np.int64)
    if width == 2:
        return ids[:, 0], ids[:, 1]
    return ids[:, 0], ids[:, 1], table[:, 2]


def vertex_count(
    src: np.ndarray, dst: np.ndarray, num_vertices: Optional[int]
) -> int:
    """The number of vertices the arcs ``src[i] -> dst[i]`` span:
    ``num_vertices``, or ``max id + 1`` when it is ``None``.

    The one input rule for edge and arc lists, self-loops included:
    equal lengths, no negative id, no id at or past ``num_vertices``
    (:class:`GraphConstructionError` otherwise).
    """
    if len(src) != len(dst):
        raise GraphConstructionError(
            "sources and targets must have equal length"
        )
    if num_vertices is not None and num_vertices < 0:
        raise GraphConstructionError("num_vertices must be non-negative")
    if len(src) == 0:
        return 0 if num_vertices is None else num_vertices
    if min(int(src.min()), int(dst.min())) < 0:
        raise GraphConstructionError("vertex ids must be non-negative")
    hi = max(int(src.max()), int(dst.max()))
    if num_vertices is None:
        return hi + 1
    if hi >= num_vertices:
        raise GraphConstructionError(
            f"vertex id {hi} out of fixed range [0, {num_vertices})"
        )
    return num_vertices


def _id_array(values: Any, name: str) -> np.ndarray:
    """``values`` as a 1-D integer array (not yet cast)."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise GraphConstructionError(
            f"indptr and indices must be one-dimensional, got {name} of "
            f"shape {array.shape}"
        )
    if array.size and array.dtype.kind not in "iu":
        raise GraphConstructionError(
            f"{name} has non-integer dtype {array.dtype}"
        )
    return array


def _checked_degrees(indptr: np.ndarray, num_entries: int) -> np.ndarray:
    """``np.diff(indptr)`` after checking the row pointers, in ``O(n)``.

    The check the trusted path keeps: a bad row pointer is the one
    corruption that turns into out-of-bounds slicing inside kernels.

    :dtype degrees: int64
    """
    if len(indptr) == 0 or indptr[0] != 0:
        raise GraphConstructionError("indptr must start at 0")
    if indptr[-1] != num_entries:
        raise GraphConstructionError(
            f"indptr ends at {int(indptr[-1])}, but indices has "
            f"{num_entries} entries"
        )
    degrees = np.diff(indptr).astype(np.int64, copy=False)
    if len(degrees) and int(degrees.min()) < 0:
        raise GraphConstructionError(
            "indptr is not monotone non-decreasing"
        )
    return degrees


def _checked_weights(weights: Any, num_entries: int) -> np.ndarray:
    """``weights`` as ``float64``, aligned with the arcs and non-negative."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.ndim != 1 or len(weights) != num_entries:
        raise GraphConstructionError("weights must align with indices")
    if bool(np.any(weights < 0)):
        raise GraphConstructionError("weights must be non-negative")
    return weights


class CSR:
    """One frozen CSR adjacency: ``indptr``, ``indices``, ``degrees`` and
    optional ``weights`` (see the module docstring for the layout).

    A CSR is valid whenever it exists.  The constructor checks its
    arrays: integer ids, row pointers from 0 to ``len(indices)`` that
    never decrease, arc heads in ``[0, n)`` and, when given, weights
    aligned with ``indices`` and non-negative.  :meth:`from_arcs` is
    valid by construction, and :meth:`trusted` checks only the row
    pointers.  The arrays are frozen (:func:`repro.sanitize.freeze`) and
    the attributes cannot be rebound, so one CSR can be shared by every
    graph, engine and worker that reads it.
    """

    __slots__ = ("indptr", "indices", "degrees", "weights")

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    weights: Optional[np.ndarray]

    def __init__(self, indptr: Any, indices: Any, weights: Any = None) -> None:
        indptr = np.ascontiguousarray(
            _id_array(indptr, "indptr"), dtype=np.int64
        )
        raw_indices = _id_array(indices, "indices")
        degrees = _checked_degrees(indptr, len(raw_indices))
        n = len(indptr) - 1
        # Checked before the int32 cast, which could wrap a large id
        # back into range.
        if len(raw_indices) and (
            int(raw_indices.min()) < 0 or int(raw_indices.max()) >= n
        ):
            raise GraphConstructionError(
                f"neighbor ids out of range [0, {n})"
            )
        if weights is not None:
            weights = _checked_weights(weights, len(raw_indices))
        self._freeze(
            indptr,
            np.ascontiguousarray(raw_indices, dtype=np.int32),
            degrees,
            weights,
        )

    def _freeze(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> None:
        """Bind the arrays read-only.  freeze() clears each writeable
        flag; under REPRO_SANITIZE=1 a write also raises a SanitizerError
        naming the array.

        :mutates indptr, indices, degrees, weights: frozen in place.
        """
        indptr = sanitize.freeze(indptr, "CSR.indptr")
        indices = sanitize.freeze(indices, "CSR.indices")
        degrees = sanitize.freeze(degrees, "CSR.degrees")
        if weights is not None:
            weights = sanitize.freeze(weights, "CSR.weights")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def trusted(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "CSR":
        """A CSR over ``indptr`` / ``indices`` / ``weights`` as they are.

        The store's zero-copy open: the arrays must already carry the
        canonical dtypes, and they are frozen in place rather than
        copied.  Only the row pointers are checked (``O(n)``); arc heads
        and weights are trusted, because the store wrote them from a
        valid CSR and its digest check re-reads them on demand.
        """
        csr = cls.__new__(cls)
        csr._freeze(
            indptr, indices, _checked_degrees(indptr, len(indices)), weights
        )
        return csr

    @classmethod
    def from_arcs(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "CSR":
        """The CSR of the arcs ``src[i] -> dst[i]`` on vertices ``[0, n)``.

        The one arcs-to-CSR assembly.  Ids follow :func:`vertex_count`
        and weights must align with the arcs and be non-negative.
        Self-loops are dropped, duplicate arcs collapse to one (keeping
        the least weight) and every neighbour list comes out sorted.

        Besides its inputs (``int32`` ids are read as they are), the
        assembly holds one ``int64`` key per arc: it is sorted in place,
        copied only when a self-loop or a duplicate must go, and turned
        into the arc heads in place.  The row pointers come from
        searching the sorted keys, so no per-arc tail array is built.

        :dtype key: int64
        :dtype indptr: int64
        :dtype indices: int32
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.dtype != np.int32:
            src = src.astype(np.int64, copy=False)
        if dst.dtype != np.int32:
            dst = dst.astype(np.int64, copy=False)
        vertex_count(src, dst, n)
        key = src.astype(np.int64)
        key *= n
        key += dst
        keep = src != dst
        if not keep.all():
            key = key[keep]
        if weights is None:
            key.sort()
        else:
            weights = _checked_weights(weights, len(src))[keep]
            # By arc, then by weight: each arc's first copy is its lightest.
            order = np.lexsort((weights, key))
            key, weights = key[order], weights[order]
        first = np.ones(len(key), dtype=np.bool_)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            key = key[first]
            if weights is not None:
                weights = weights[first]
        width = max(n, 1)
        indptr = np.searchsorted(
            key, np.arange(n + 1, dtype=np.int64) * width
        ).astype(np.int64, copy=False)
        degrees = np.diff(indptr)
        np.remainder(key, width, out=key)
        indices = key.astype(np.int32)
        csr = cls.__new__(cls)
        csr._freeze(indptr, indices, degrees, weights)
        return csr

    @classmethod
    def from_edges(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "CSR":
        """The symmetric CSR of the undirected edges ``{src[i], dst[i]}``:
        :meth:`from_arcs` over both directions of every edge."""
        return cls.from_arcs(
            n,
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            None if weights is None else np.concatenate([weights, weights]),
        )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        """Number of arcs (``len(indices)``)."""
        return len(self.indices)

    def arc_sources(self) -> np.ndarray:
        """The tail of every arc (``int64``), aligned with ``indices``."""
        ids = np.arange(self.num_vertices, dtype=np.int64)
        return np.repeat(ids, self.degrees)

    def transpose(self) -> "CSR":
        """The CSR of every arc reversed, neighbour lists sorted."""
        return CSR.from_arcs(
            self.num_vertices, self.indices, self.arc_sources(), self.weights
        )

    def is_reverse_of(self, other: "CSR") -> bool:
        """True when ``other`` holds exactly this CSR's arcs reversed
        (as a multiset: neighbour order may differ).  ``O(m log m)``."""
        n = self.num_vertices
        if other.num_vertices != n or other.num_arcs != self.num_arcs:
            return False
        forward = np.sort(self.arc_sources() * n + self.indices)
        backward = np.sort(
            other.indices.astype(np.int64) * n + other.arc_sources()
        )
        return bool(np.array_equal(forward, backward))

    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"CSR is frozen; cannot set {name!r}")

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # An unpickled copy is re-frozen through the trusted path.
        return (CSR.trusted, (self.indptr, self.indices, self.weights))


class UndirectedCSRGraph:
    """An undirected graph kind over one :class:`CSR`: the accessors
    :class:`Graph` and :class:`~repro.weighted.graph.WeightedGraph`
    share.  ``WEIGHTED`` says whether the kind's CSR carries weights."""

    # __weakref__ lets the per-graph engine caches
    # (repro.graph.engine.engine_for) key off live graphs without
    # pinning them in memory.
    __slots__ = ("_csr", "__weakref__")

    WEIGHTED = False

    @classmethod
    def from_csr(cls, csr: CSR) -> Any:
        """The graph over ``csr`` (no copy), which must carry weights
        exactly when the kind does."""
        if (csr.weights is not None) != cls.WEIGHTED:
            raise GraphConstructionError(
                f"{cls.__name__} needs a CSR "
                f"{'with' if cls.WEIGHTED else 'without'} weights"
            )
        graph = cls.__new__(cls)
        graph._csr = csr
        return graph

    @property
    def out_csr(self) -> CSR:
        """The graph's one CSR (every edge is an arc each way)."""
        return self._csr

    @property
    def in_csr(self) -> CSR:
        """The same CSR as :attr:`out_csr`: the adjacency is symmetric."""
        return self._csr

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array (length ``n + 1``)."""
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR neighbor array (length ``2m``)."""
        return self._csr.indices

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of vertex degrees."""
        return self._csr.degrees

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._csr.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._csr.num_arcs // 2

    def max_degree_vertex(self) -> int:
        """Vertex of maximum degree; ties broken by smallest id."""
        if self.num_vertices == 0:
            raise GraphConstructionError("graph has no vertices")
        return int(np.argmax(self.degrees))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise InvalidVertexError(v, self.num_vertices)


class Graph(UndirectedCSRGraph):
    """An unweighted, undirected graph over one :class:`CSR`.

    ``Graph(indptr, indices)`` checks the arrays as :class:`CSR` does;
    every undirected edge ``{u, v}`` must appear in both ``u``'s and
    ``v``'s slice (checked only by :meth:`check_symmetric`).
    :meth:`from_edges` and :class:`~repro.graph.builder.GraphBuilder`
    build from edge lists.
    """

    __slots__ = ()

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._csr = CSR(indptr, indices)

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
        src, dst = edge_columns(edges, 2)
        n = vertex_count(src, dst, num_vertices)
        return cls.from_csr(CSR.from_edges(n, src, dst))

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the neighbors of ``v``."""
        self._check_vertex(v)
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def top_degree_vertices(self, count: int) -> np.ndarray:
        """The ``count`` highest-degree vertices, ties broken by smaller id.

        This is the reference-node selection rule used by both PLLECC and
        IFECC (Algorithm 1 line 2 / Algorithm 2 line 1).
        """
        return _by_degree(self.degrees, count)

    def check_symmetric(self) -> None:
        """Raise :class:`GraphConstructionError` unless the adjacency
        structure is symmetric (every arc has its reverse)."""
        if not self._csr.is_reverse_of(self._csr):
            raise GraphConstructionError(
                "adjacency is not symmetric: some arc has no reverse"
            )

    def memory_bytes(self) -> int:
        """Bytes used by the CSR arrays (the ``O(m + n)`` footprint)."""
        return self.indptr.nbytes + self.indices.nbytes + self.degrees.nbytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
