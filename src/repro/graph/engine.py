"""Direction-optimizing BFS engine with pooled per-graph workspaces.

Every algorithm in this reproduction — IFECC's FFO sweep, kIFECC,
PLLECC's probe phase, BoundECC, kBFS, and the naive oracle — reduces to
single-source BFS, so this kernel is the hot path of the whole library.
Compared to the original level-synchronous kernel in
:mod:`repro.graph.traversal` it applies three optimisations:

1. **Pooled workspaces.**  A :class:`BFSEngine` is constructed once per
   graph and owns reusable ``int32``/``int64``/``bool`` buffers
   (distance vector, frontier bitmap, dedupe bitmap, slot scratch).
   Algorithms that run thousands of BFSs on one graph (the FFO-ordered
   IFECC sweep, the naive oracle) stop paying an ``O(n)`` allocation
   per run.  Pooling is safe because a graph's
   :class:`~repro.graph.csr.CSR` is frozen (reprolint R1): a cached
   engine can never observe a mutated CSR.

2. **Thin levels at frontier cost.**  A top-down level is one fused
   pass over the frontier's arcs: the out-degrees gathered for the
   direction decision give the arc slices, the positions come from a
   pooled ``arange`` prefix, and the unreached endpoints are deduped
   and marked at their distance in place.  A thin level deduplicates
   with a slot write (:func:`distinct_ids`, ``O(f)``), so it costs a
   handful of numpy calls and no ``O(n)`` step; a candidate set of at
   least ``n / 16`` entries dedupes with a bitmap instead, whose
   ``O(n)`` scan it amortises.  The slot write leaves the frontier
   unsorted, which changes nothing: a level's distance writes, degree
   sums and bitmap marks do not depend on the order of its vertices.
   Both directions read their arcs ``2^16`` at a time
   (:meth:`_Kernel._arc_chunks`, shared with the lane engine), so a
   run's scratch is bounded by the chunk, not by its widest level's
   arcs; each chunk marks its vertices before the next one reads the
   distances, so no vertex is fresh twice.

3. **Direction switching.**  On the scale-free, low-diameter graphs the
   paper targets, >90% of edge inspections happen on a few dense middle
   levels.  There the engine runs **bottom-up**: unvisited vertices test
   whether any neighbor sits in the frontier bitmap (vectorised over the
   CSR slices with ``np.logical_or.reduceat``) instead of expanding
   every frontier arc.  The classic heuristic of Beamer et al. (and of
   Then et al.'s MS-BFS, the paper's reference [35]) decides per level:
   switch top-down → bottom-up when ``m_frontier > m_unvisited / α``,
   and back when the frontier shrinks below ``n / β``.  Each term is
   the arc mass of the CSR its level would read: ``m_frontier`` sums
   out-degrees (a top-down level expands out-arcs), ``m_unvisited``
   in-degrees (a bottom-up level probes the in-arcs of unvisited
   vertices).  Both cost one vectorised gather per level.

An engine reads an **(out-CSR, in-CSR) pair** (:func:`csr_pair`).
An undirected graph passes its one CSR twice, as the same object, so
in- and out-degree coincide; a
:class:`~repro.directed.graph.DirectedGraph` gets a forward engine
(out-arcs, in-arcs) for ``dist(s, .)`` and a backward engine (in-arcs,
out-arcs) for ``dist(., s)``.  One kernel therefore serves both graph
kinds, bottom-up levels and lanes included.

Direction choice changes *speed only, never answers*: a vertex first
reached at level ``d`` is assigned distance ``d`` in either direction,
so distance vectors (and everything derived from them — FFOs, bounds,
territories, ``IFECC.run()`` output) are bit-identical to the seed
kernel.  The edges inspected by bottom-up levels (which are never
"scanned" in the top-down sense) are credited to
``TraversalCounter.edges_inspected`` so cost accounting stays honest,
and each run's per-level decisions and frontier sizes go into its one
``bfs.run`` trace event — the run's only record, which the tracer's
metrics registry folds in (:meth:`repro.obs.metrics.MetricsRegistry.\
fold_event`).

This kernel and the lane engine (:mod:`repro.graph.msengine`) share
one base, :class:`_Kernel`, and one cache of each graph's kernels,
keyed weakly so dropping a graph frees its workspaces (:func:`engine_for`,
:func:`~repro.graph.msengine.msengine_for`).
"""

from __future__ import annotations

import threading
import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np

from repro import sanitize
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph.csr import CSR
from repro.obs.trace import get_tracer
from repro.sentinels import UNREACHED

if TYPE_CHECKING:  # runtime import would be circular; only annotations need it
    from repro.counters import TraversalCounter

__all__ = [
    "ALPHA",
    "BETA",
    "UNREACHED",
    "BFSEngine",
    "as_vertex_ids",
    "csr_pair",
    "distinct_ids",
    "engine_for",
    "gather_csr_arcs",
]

#: Direction heuristic: go bottom-up when ``m_frontier > m_unvisited / ALPHA``.
#: Beamer's C++ implementation uses 14; numpy's bottom-up probe costs about
#: as much per arc as a top-down expansion, so a stricter threshold
#: (switch later, when the unvisited arc mass is genuinely small) wins —
#: measured 4.7x vs. 3.2x seed-kernel speedup on the 50k power-law graph.
ALPHA = 4.0

#: Direction heuristic: return top-down when ``|frontier| < n / BETA``.
BETA = 24.0

#: The direction modes of every kernel: direction-optimizing, or one
#: direction forced (benchmarks and equivalence tests).
_MODES = ("hybrid", "top-down", "bottom-up")

#: Mask-based dedupe pays an ``O(n)`` bitmap scan; use it only once the
#: candidate set is at least ``n / _MASK_DEDUPE_DIVISOR`` entries, else
#: the ``O(f)`` slot write is cheaper (thin frontiers, deep graphs).
_MASK_DEDUPE_DIVISOR = 16

#: Arcs gathered at once by one level of either kernel.  A level's arc
#: scratch (positions, endpoints, lane words) is bounded by this many
#: arcs instead of growing with the frontier's arc mass, so large graphs
#: traverse without their peak memory growing with arcs.
_GATHER_CHUNK_ARCS = 1 << 16

#: ``0, 1, ..., _GATHER_CHUNK_ARCS - 1``, read-only: every arc gather
#: and slot write slices its positions from this prefix instead of
#: building an ``arange`` per level.
_POSITIONS = np.arange(_GATHER_CHUNK_ARCS, dtype=np.int64)
_POSITIONS.setflags(write=False)

#: Gathers of more entries than this use ``ndarray.take``; smaller ones
#: index.  With ``int64`` ids on numpy 2.4, indexing a few entries costs
#: about 0.3 us against 0.5 us for ``take``; the two meet at about 500
#: entries, and ``take`` reads 16k ``uint64`` words in 22 us against 30.
_TAKE_MIN = 512


def _positions(count: int) -> np.ndarray:
    """``0, 1, ..., count - 1`` as ``int64``, from the pooled prefix when
    it is long enough; callers never write to it (the prefix is
    read-only).

    :dtype out: int64
    """
    if count <= len(_POSITIONS):
        return _POSITIONS[:count]
    return np.arange(count, dtype=np.int64)


def _take(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``values[ids]``, by whichever gather is cheaper at ``len(ids)``."""
    if len(ids) > _TAKE_MIN:
        return values.take(ids)
    return values[ids]


def distinct_ids(ids: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids``, in no particular order.

    Of the positions sharing one id, exactly the one whose write landed
    last reads itself back, whatever order the writes took.  Costs
    ``O(len(ids))``, with no sort (``np.unique`` also imports
    ``numpy.ma`` on its first call in a process).

    :mutates slot: int64 scratch of length n; ``slot[ids]`` is
        overwritten.
    """
    positions = _positions(len(ids))
    slot[ids] = positions
    return ids[_take(slot, ids) == positions]


def _gather_slices(
    indices: np.ndarray, starts: np.ndarray, counts: np.ndarray, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The arcs of the slices ``indices[starts[i]: starts[i] + counts[i]]``,
    concatenated, plus each slice's offset in the result; ``total`` is
    ``counts.sum()``.  The one arc-position rule of the engines.

    The endpoints come back as ``int64``: numpy indexes with them
    several times per level, and ``int32`` ids cost a conversion on
    every small gather (1.6 us against 0.3 us for a few entries).

    :dtype seg_starts: int64
    :dtype positions: int64
    :dtype arc_dst: int64
    """
    seg_starts = counts.cumsum() - counts
    if total == 0:
        return np.empty(0, dtype=np.int64), seg_starts
    # Out of place: a gather of a frozen CSR array may be read-only.
    positions = (starts - seg_starts).repeat(counts) + _positions(total)
    arc_dst = _take(indices, positions).astype(np.int64)
    return arc_dst, seg_starts


def gather_csr_arcs(
    indptr: np.ndarray,
    indices: np.ndarray,
    vertices: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor ids of ``vertices`` plus segment starts.

    Returns ``(neighbors, seg_starts)`` where ``neighbors`` lists every
    arc endpoint of every vertex (duplicates included, per-vertex slices
    contiguous) and ``seg_starts[i]`` is the offset of vertex ``i``'s
    slice inside ``neighbors``.  ``counts`` must equal
    ``indptr[vertices + 1] - indptr[vertices]``.
    """
    return _gather_slices(
        indices, indptr[vertices], counts, int(counts.sum())
    )


def csr_pair(graph: Any, backward: bool = False) -> Tuple[CSR, CSR]:
    """The ``(out, in)`` CSR pair an engine over ``graph`` reads.

    Every graph kind exposes ``out_csr`` and ``in_csr``; an undirected
    graph's are its one CSR, the same object (``backward`` changes
    nothing).  ``backward`` swaps a directed graph's pair, so the
    engine computes ``dist(., s)``.
    """
    out, in_csr = graph.out_csr, graph.in_csr
    return (in_csr, out) if backward else (out, in_csr)


def as_vertex_ids(ids: Any, n: int) -> np.ndarray:
    """``ids`` as a one-dimensional ``int64`` array of vertices in ``[0, n)``.

    Raises :class:`InvalidParameterError` unless ``ids`` is
    one-dimensional and :class:`InvalidVertexError` naming the first id
    out of range.

    :dtype out: int64
    """
    out = np.ascontiguousarray(ids, dtype=np.int64)
    if out.ndim != 1:
        raise InvalidParameterError("vertex ids must be one-dimensional")
    if out.size and (out.min() < 0 or out.max() >= n):
        raise InvalidVertexError(int(out[(out < 0) | (out >= n)][0]), n)
    return out


class _Kernel:
    """What every BFS kernel reads of one graph: its :func:`csr_pair`,
    ``n``, :attr:`num_arcs` and a run's history label (``bfs``, or
    ``fwd``/``bwd`` on a directed graph).  No reference to the graph:
    the kernel cache is keyed weakly by it."""

    __slots__ = (
        "num_arcs",
        "_n",
        "_out",
        "_in",
        "_label",
        "_chunk_arcs",
        "__weakref__",
    )

    def __init__(self, graph: Any, backward: bool = False) -> None:
        self._n = graph.num_vertices
        # Read once, so every level of this kernel (and the lane
        # engine's dense-pull plan) uses one chunk size.
        self._chunk_arcs = _GATHER_CHUNK_ARCS
        self._out, self._in = csr_pair(graph, backward)
        #: Arcs of the graph (an undirected edge is two).
        self.num_arcs = self._out.num_arcs
        # An undirected graph's pair is one CSR.
        self._label = (
            "bfs" if self._out is self._in else "bwd" if backward else "fwd"
        )

    @staticmethod
    def _check_mode(mode: str) -> None:
        """Reject a direction mode outside :data:`_MODES`."""
        if mode not in _MODES:
            raise InvalidParameterError(f"unknown BFS mode: {mode!r}")

    def _arc_chunks(
        self, csr: CSR, vertices: np.ndarray, counts: np.ndarray, total: int
    ) -> Iterable[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """The ``csr`` arcs of ``vertices``, ``_GATHER_CHUNK_ARCS`` at once.

        ``counts`` is ``csr.degrees[vertices]`` and ``total`` its sum.
        Gives ``(lo, hi, arc_dst, seg_starts, seg_counts)`` per chunk:
        the chunk covers slices of ``vertices[lo:hi]`` (the first and
        last possibly cut short, every other one whole), ``arc_dst``
        lists their arc endpoints and vertex ``lo + i``'s slice starts
        at ``seg_starts[i]`` and holds ``seg_counts[i]`` arcs.  The two
        end slices are never empty unless ``vertices`` has no arcs at
        all, which gives no chunk.  Arcs that fit one chunk come back
        as a one-element tuple, with no generator.
        """
        if total == 0:
            return ()
        if total <= self._chunk_arcs:
            arc_dst, seg_starts = _gather_slices(
                csr.indices, csr.indptr[vertices], counts, total
            )
            return ((0, len(vertices), arc_dst, seg_starts, counts),)
        return _chunked_arcs(csr, vertices, counts, total, self._chunk_arcs)


def _chunked_arcs(
    csr: CSR, vertices: np.ndarray, counts: np.ndarray, total: int, chunk: int
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """:meth:`_Kernel._arc_chunks` of more than one ``chunk`` of arcs.

    :dtype csum: int64
    """
    csum = counts.cumsum()
    for a in range(0, total, chunk):
        b = min(a + chunk, total)
        # Vertex lo holds arc a; vertex hi - 1 holds arc b - 1.
        lo = int(np.searchsorted(csum, a, side="right"))
        hi = int(np.searchsorted(csum, b, side="left")) + 1
        # Owned copies: both are trimmed below, and a gather of the
        # frozen CSR arrays may still be flagged read-only.
        seg_counts = counts[lo:hi].copy()
        starts = csr.indptr[vertices[lo:hi]].copy()
        head = a - int(csum[lo] - counts[lo])
        starts[0] += head
        seg_counts[0] -= head
        seg_counts[-1] -= int(csum[hi - 1]) - b
        arc_dst, seg_starts = _gather_slices(
            csr.indices, starts, seg_counts, b - a
        )
        yield lo, hi, arc_dst, seg_starts, seg_counts


class BFSEngine(_Kernel):
    """Reusable direction-optimizing BFS kernel for one graph.

    The engine owns its workspace buffers; :meth:`run` returns the
    *pooled* distance buffer, which stays valid only until the next
    call on the same engine.  Callers that retain distances (FFOs,
    the solver's reference rows, the public
    :func:`repro.graph.traversal.bfs_distances` wrapper) must copy.

    Parameters
    ----------
    graph:
        The immutable graph this engine traverses (see :func:`csr_pair`).
    backward:
        Traverse a directed graph's arcs in reverse (``dist(., s)``).
    """

    __slots__ = (
        "last_ecc",
        "_dist",
        "_frontier_mask",
        "_dedupe_mask",
        "_slot",
        "_guard",
    )

    def __init__(self, graph: Any, backward: bool = False) -> None:
        super().__init__(graph, backward)
        n = self._n
        # Pooled workspaces, sized once per graph (reprolint R1 makes the
        # CSR immutable, so these can never go stale).
        #
        # :dtype dist: int32
        # :dtype slot: int64
        self._dist = np.empty(n, dtype=np.int32)
        self._frontier_mask = np.zeros(n, dtype=np.bool_)
        self._dedupe_mask = np.zeros(n, dtype=np.bool_)
        self._slot = np.empty(n, dtype=np.int64)
        # None unless REPRO_SANITIZE is armed at construction time, so
        # the production cost of the sanitizer is one `is None` per run.
        self._guard = sanitize.guard_if_enabled("BFSEngine")
        #: Eccentricity (max finite distance) of the last :meth:`run`.
        self.last_ecc: int = 0

    def run(
        self,
        source: Union[int, Sequence[int]],
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> np.ndarray:
        """BFS distances from ``source`` into the pooled buffer.

        ``source`` is one vertex, or a sequence of vertices for a
        nearest-source run: all of them start the traversal at level 0,
        so each vertex gets its distance to the closest source for one
        BFS worth of work (a duplicate source counts once).  ``mode``
        is ``"hybrid"`` (direction-optimizing, the default),
        ``"top-down"`` or ``"bottom-up"`` (forced, for benchmarks and
        equivalence tests).  Returns the pooled ``int32`` distance
        vector — copy before the next call if you keep it.  Sets
        :attr:`last_ecc`.  ``counter`` is credited with one run
        labelled ``bfs:<source>`` (``fwd:``/``bwd:`` on a directed
        graph; a nearest-source run is unlabelled), and a live tracer
        receives one ``bfs.run`` event (``source`` is None for a
        nearest-source run).

        Under ``REPRO_SANITIZE=1`` the returned vector is a read-only
        :class:`repro.sanitize.GuardedArray` loan that raises on use
        after the next run.
        """
        guard = self._guard
        if guard is None:
            return self._run_impl(source, counter, mode)
        guard.begin_run()
        try:
            dist = self._run_impl(source, counter, mode)
        finally:
            guard.end_run()
        return guard.loan(dist, "BFSEngine._dist")

    def _run_impl(
        self,
        source: Union[int, Sequence[int]],
        counter: Optional["TraversalCounter"],
        mode: str,
    ) -> np.ndarray:
        """The traversal itself; returns the raw pooled buffer.

        :dtype frontier: int64
        """
        self._check_mode(mode)
        n = self._n
        origin: Any = source  # the event's `source`
        if isinstance(source, (int, np.integer)):
            if not 0 <= source < n:
                raise InvalidVertexError(source, n)
            frontier = np.asarray([source], dtype=np.int64)
            label = f"{self._label}:{source}"
        else:
            seeds = np.asarray(source, dtype=np.int64).reshape(-1)
            frontier = distinct_ids(as_vertex_ids(seeds, n), self._slot)
            origin = None
            label = ""
        dist = self._dist
        dist.fill(UNREACHED)
        dist[frontier] = 0
        # The run's record: arc totals and, per level, the direction
        # and the number of vertices first reached.
        scanned = inspected = 0
        directions: List[str] = []
        frontier_sizes: List[int] = []
        out_deg, in_deg = self._out.degrees, self._in.degrees
        symmetric = out_deg is in_deg
        # The frontier's out-degrees, gathered once per level: they give
        # m_frontier and the next top-down level's arc slices.
        counts = out_deg[frontier]
        m_frontier = int(counts.sum())
        m_unvisited = self.num_arcs - (
            m_frontier if symmetric else int(in_deg[frontier].sum())
        )
        visited = len(frontier)
        level = 0
        hybrid = mode == "hybrid"
        direction = "bu" if mode == "bottom-up" else "td"
        n_over_beta = self._n / BETA
        prev_m_frontier = 0
        # Unvisited candidates (in-degree > 0), maintained only while
        # running bottom-up; None means "not materialised".
        cand: Optional[np.ndarray] = None
        while frontier.size:
            # Beamer-style per-level decision, inlined (a method call per
            # level is measurable on diameter-hundreds graphs).  Bottom-up
            # is entered only while the frontier's arc mass still grows:
            # on high-diameter graphs the frontier plateaus, and probing
            # every unvisited vertex per level would turn O(m) into
            # O(n * diameter).
            if hybrid:
                if direction == "td":
                    if (
                        m_frontier > prev_m_frontier
                        and m_frontier * ALPHA > m_unvisited
                    ):
                        direction = "bu"
                elif len(frontier) < n_over_beta:
                    direction = "td"
                    cand = None
            if direction == "td":
                fresh, arcs = self._top_down_level(
                    frontier, counts, m_frontier, level + 1
                )
                scanned += arcs
            else:
                if cand is None:
                    unvisited = np.flatnonzero(dist == UNREACHED)
                    cand = unvisited[in_deg[unvisited] > 0]
                fresh, arcs, cand = self._bottom_up_level(
                    frontier, cand, level + 1
                )
            inspected += arcs
            if fresh is None:
                break
            level += 1
            visited += len(fresh)
            counts = out_deg[fresh]
            prev_m_frontier = m_frontier
            m_frontier = int(counts.sum())
            m_unvisited -= (
                m_frontier if symmetric else int(in_deg[fresh].sum())
            )
            directions.append(direction)
            frontier_sizes.append(len(fresh))
            frontier = fresh
        self.last_ecc = level
        if counter is not None:
            counter.record(
                scanned,
                visited,
                label=label,
                inspected=inspected,
            )
        tracer = get_tracer()
        if tracer.enabled:
            # One event per run, assembled from the collected record —
            # per-level emission would put sink calls on the hot path;
            # this keeps the disabled cost at one branch per BFS.
            tracer.event(
                "bfs.run",
                source=origin,
                mode=mode,
                levels=level,
                ecc=level,
                visited=visited,
                edges_scanned=scanned,
                edges_inspected=inspected,
                directions=directions,
                frontier_sizes=frontier_sizes,
            )
        return dist

    def _top_down_level(
        self, frontier: np.ndarray, counts: np.ndarray, arcs: int, level: int
    ) -> Tuple[Optional[np.ndarray], int]:
        """Expand the frontier's out-arcs and mark what they first reach.

        ``counts`` holds the frontier's out-degrees and ``arcs`` their
        sum.  Returns ``(fresh, arcs)``: the vertices first reached, now
        at distance ``level`` (None if there are none), and the arcs
        scanned.  Each chunk of arcs marks its vertices before the next
        chunk reads ``dist``, so a vertex is fresh in one chunk only.
        """
        parts = [
            self._mark_unreached(arc_dst, level)
            for _lo, _hi, arc_dst, _seg, _counts in self._arc_chunks(
                self._out, frontier, counts, arcs
            )
        ]
        if len(parts) > 1:
            parts = [np.concatenate(parts)]
        if not parts or len(parts[0]) == 0:
            return None, arcs
        return parts[0], arcs

    def _mark_unreached(self, targets: np.ndarray, level: int) -> np.ndarray:
        """The distinct unreached ``targets``, now at distance ``level``.

        A thin candidate set dedupes with a slot write (``O(len)``); one
        of at least ``n / _MASK_DEDUPE_DIVISOR`` entries with the
        bitmap, whose ``O(n)`` scan it amortises.

        :dtype fresh: int64
        """
        dist = self._dist
        cand = targets[_take(dist, targets) == UNREACHED]
        if len(cand) * _MASK_DEDUPE_DIVISOR >= self._n:
            mask = self._dedupe_mask
            mask[cand] = True
            fresh = np.flatnonzero(mask)
            mask[fresh] = False
        else:
            fresh = distinct_ids(cand, self._slot)
        dist[fresh] = level
        return fresh

    def _bottom_up_level(
        self, frontier: np.ndarray, cand: np.ndarray, level: int
    ) -> Tuple[Optional[np.ndarray], int, np.ndarray]:
        """Unvisited vertices probe the frontier bitmap over their in-arcs.

        Returns ``(fresh, arcs inspected, surviving candidates)``; the
        fresh vertices (None if there are none) are now at distance
        ``level``.  The candidates' in-arcs are read one chunk at a
        time; a candidate whose arcs straddle two chunks ORs both.
        """
        if len(cand) == 0:
            return None, 0, cand
        mask = self._frontier_mask
        mask[frontier] = True
        in_csr = self._in
        counts = in_csr.degrees[cand]
        arcs = int(counts.sum())
        found = np.zeros(len(cand), dtype=np.bool_)
        for lo, hi, arc_dst, seg_starts, _counts in self._arc_chunks(
            in_csr, cand, counts, arcs
        ):
            # counts > 0 for every candidate, so reduceat segments are
            # non-empty and aligned with `cand`.
            hits = np.logical_or.reduceat(_take(mask, arc_dst), seg_starts)
            found[lo:hi] |= hits
        mask[frontier] = False
        fresh = cand[found]
        if len(fresh) == 0:
            return None, arcs, cand
        self._dist[fresh] = level
        return fresh, arcs, cand[~found]


# The kernels of each live graph, by (kernel class, direction); the
# weak key means dropping the graph also frees its pooled buffers.  Safe
# because graph arrays are immutable (R1).
_ENGINES: "weakref.WeakKeyDictionary[Any, Dict[Tuple[type, bool], Any]]" = (
    weakref.WeakKeyDictionary()
)
_ENGINES_LOCK = threading.Lock()

_K = TypeVar("_K", bound=_Kernel)


def _kernel_for(kind: Type[_K], graph: Any, backward: bool) -> _K:
    """The cached ``kind`` kernel of ``graph`` (created on first use).

    ``backward`` selects a directed graph's reverse kernel
    (``dist(., s)``).  The get-or-create is serialized so threads racing
    on a fresh graph share one kernel (which itself stays
    single-threaded; the sanitizer's reentrancy check enforces that).
    """
    with _ENGINES_LOCK:
        kernels = _ENGINES.setdefault(graph, {})
        kernel = kernels.get((kind, backward))
        if kernel is None:
            kernel = kernels[(kind, backward)] = kind(graph, backward)
    return kernel


def engine_for(graph: Any, backward: bool = False) -> BFSEngine:
    """The cached :class:`BFSEngine` of ``graph`` (see :func:`_kernel_for`)."""
    return _kernel_for(BFSEngine, graph, backward)
