"""Direction-optimizing bit-parallel multi-source BFS engine.

This module marries the repository's two traversal accelerators:

* the **bit-parallel lanes** of Then et al., *The More the Merrier*
  (VLDB 2014, the paper's reference [35]) — up to 64 BFS traversals
  share one sweep by packing their visited sets into one ``uint64``
  word per vertex, one lane (bit) per source; and
* the **direction switching** of Beamer et al. (and of
  :class:`repro.graph.engine.BFSEngine`, PR 2) — dense middle levels
  run *bottom-up*, where unvisited vertices probe the frontier instead
  of the frontier expanding every arc.

The combination is the largest remaining single-host speedup for the
batch phases (naive ED, FFO seeding, sampling baselines, reference
scans): a 64-source batch costs one hybrid sweep instead of 64.

Level update, on ``(n,)`` ``uint64`` bitmaps:

* **top-down** — gather the out-arcs of every active vertex and OR
  the packed frontier words onto the targets
  (``next[v] |= frontier[u]`` for every arc ``u -> v``), then mask
  with ``~seen``.  A level whose arcs fit one gather chunk runs fused,
  at frontier cost: it ORs the words the sweep already holds for the
  active vertices (the previous level's fresh bits), dedupes the
  targets with a slot write into ``next``'s own words, and reads and
  re-zeroes ``next`` at those targets only — no ``O(n)`` fill, ``~seen``
  or scan.  A wider level ORs chunk by chunk and scans all n once;
* **bottom-up** — every vertex still missing a live lane OR-reduces
  its in-neighbors' frontier words over its in-CSR slice
  (``np.bitwise_or.reduceat``); fresh bits are ``reduced & ~seen[v]``.
  The candidates' words ``~seen & live`` go to a pooled scratch
  bitmap, and their in-arc mass is one contraction of the in-degrees
  with ``words != 0``.  A bottom-up level pulls in one of two forms,
  chosen by that mass's share of the in-arcs.  A *thin* level gathers
  just the candidates' arcs by position and, like a top-down level,
  hands on vertex lists.  A *dense* level, whose candidates hold at
  least half of the in-arcs, reads the whole in-CSR in contiguous
  chunks: one gather of frontier words and one reduction per chunk,
  at offsets planned with the engine, written as a slice of the other
  bitmap (no per-arc position array, per-level offset gather or
  scatter).  It reads at most twice the arcs the gather would, at
  about half the cost per level on the web stand-ins (EXPERIMENTS.md,
  "Forks kept").  Vertices that are no candidate gain no fresh bit,
  because the frontier holds only live lanes, so both forms give the
  same words and credit the same arcs.  A dense level stays in
  bitmaps: it masks the pulled words with the candidates in place,
  ORs them into ``seen``, takes the next frontier's size and arc mass,
  the unvisited arc mass and the live lanes from whole-array counts,
  degree contractions and one OR-reduction, and hands the bitmap on as the
  next frontier by swapping the two level bitmaps' roles.  Vertex
  lists come back only when a top-down level (one ``flatnonzero`` of
  the bitmap) or a thin pull (which reads the bitmap as it is) needs
  them.

The engine reads the same (out-CSR, in-CSR) pair as
:class:`~repro.graph.engine.BFSEngine` (see
:func:`~repro.graph.engine.csr_pair`), so an undirected graph reads
one CSR twice and a directed graph gets forward and backward lanes.
The per-level direction decision reuses the single-source engine's
``ALPHA``/``BETA`` thresholds, driven by the *aggregate* frontier arc
mass (out-degrees) across all live lanes against the in-degree mass
bottom-up would probe; a lane retires early the moment its
frontier empties (its reachable set saturated), dropping out of the
``live`` word so bottom-up levels stop probing on its behalf.

Direction choice and lane packing change *speed only, never answers*:
each lane computes exactly the level-synchronous BFS distances of its
source, so results are bit-identical to the seed MS-BFS kernel and to
looping :meth:`BFSEngine.run` — the property the golden corpus and the
equivalence suite pin.

One sweep serves three consumers, which differ only in the columns it
records.  :meth:`MSBFSEngine.run_batch` records every vertex (whole
distance rows), :meth:`MSBFSEngine.ecc_batch` none, and
:meth:`MSBFSEngine.column_batch` a given sorted list of targets — the
solver's unresolved vertices.  Eccentricities come for free: a lane's
is the last level at which it gained fresh bits, so it is the number
of levels whose live-lane word holds it, counted once after the sweep;
the visited count is the popcount of the ``seen`` bitmap.  Each level
reads its arcs ``2^16`` at a time, in either direction and either pull
form (the chunk rule is :meth:`~repro.graph.engine._Kernel._arc_chunks`,
shared with the single-source engine), so its arc scratch does not
grow with the graph's arcs.

The two level bitmaps need no zeroing between levels, only to be
*clean*: to hold no lane bit outside ``seen``.  A clean word is
dropped by the ``& ~seen`` (or ``& candidates``) every level form
applies to what it writes, and a bitmap that held an earlier
frontier is clean, because every frontier bit is in ``seen``.  So
:meth:`_MSWorkspace.reset` zeroes the bitmaps once per sweep; the
fused top-down level zeroes just the words it wrote, a chunked one
leaves its bitmap all-zero, and a dense pull rewrites every vertex
with in-arcs (a vertex without kept a clean word, which the mask
drops).  A bottom-up level reads the frontier bitmap, so that must
hold exactly the frontier's words: after a dense level it does, and
from vertex lists the sweep writes it first, zeroing the words it
last wrote there (all n once, with ``fill(0)``, after a thin pull
read the resident bitmap).  After every sweep both level bitmaps are
clean.

Distances are recorded bit-sliced: at level ``L`` the fresh lane words
of the reached targets are OR-ed into plane ``b`` for every set bit
``b`` of ``L`` (read off ``bin(L)``) — after a dense level the fresh
bitmap at the targets, or all of it — and the planes are decoded into
the ``(k, len(targets))`` ``int32`` block once, after the sweep.  So a column
sweep's scratch is about ``ceil(log2(ecc + 1)) * len(targets)`` words
plus the output block, and no level unpacks a lane.

Workspaces follow the pooled discipline of the rest of the repository:
four ``(n,)`` ``uint64`` word arrays (``seen``, the two level bitmaps
and the candidates' scratch) are allocated once per graph (weakly
cached; safe because the CSR is immutable, reprolint R1), and the
bitmaps are zeroed in place between batches.  The dense pull's chunk
plan (per chunk its ``reduceat`` offsets, and its vertices as a slice
or, when vertices without in-arcs fall among them, as ids) is built
with the engine, at one ``int64`` per vertex with in-arcs (two where
such ids are kept).
Returned distance matrices are always freshly owned — their shape
depends on the batch.

A sweep is one lane word wide.  Wider sweeps (two or four words per
vertex) halve the level loops and CSR gathers but multiply every
per-vertex word operation, and were measured no faster per source:
one 128-lane ``ecc_batch`` on a 50k-vertex power-law graph took
0.123 s against 0.072 s for two 64-lane sweeps, and 512-source
batches on the web stand-ins ran about twice as fast as 64-lane
groups as at 256 lanes.  So :func:`plan_lane_width`, the batch seam's
policy, picks 64 lanes or serial single-source traversal, and a batch
of more sources is swept as 64-lane groups by
:func:`repro.graph.batch.lane_groups`; this module holds the sweep and
no batch loop of its own.
:func:`plan_sweep_width` is the same kind of policy for the solver's
batched FFO probes: it sizes each batch from the distance cells its
block records.
"""

from __future__ import annotations

import sys
from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import sanitize
from repro.errors import InvalidParameterError
from repro.graph.engine import (
    ALPHA,
    BETA,
    _Kernel,
    _kernel_for,
    as_vertex_ids,
    distinct_ids,
)
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # runtime import would be circular; annotations only
    from repro.counters import TraversalCounter

__all__ = [
    "LANE_WORD_BITS",
    "MSBFSEngine",
    "msengine_for",
    "plan_lane_width",
    "plan_sweep_width",
]

#: Lanes per sweep — the machine word width of the bitmaps.
LANE_WORD_BITS = 64

#: Batches smaller than this run the serial single-source hybrid
#: engine: a couple of traversals cannot amortise the ``uint64``
#: word ops a lane sweep pays on every vertex.  Keep both kernels: a
#: one-lane sweep costs 3.7-9.3x a single-source run (EXPERIMENTS.md,
#: "Forks kept").
_SERIAL_BATCH_LIMIT = 8

#: Distance cells (lanes x open members) up to which an FFO lane batch
#: is widened past the doubling rule (:func:`plan_sweep_width`): 64
#: lanes while a territory has at most 4,096 open members, 8 at 32,768,
#: and only the doubling rule's width beyond.
_BLOCK_CELLS = 1 << 18

#: A bottom-up level whose candidates hold at least this share of the
#: graph's in-arcs pulls densely: it reads the whole in-CSR, one chunk
#: of contiguous arcs at a time, instead of gathering the candidates'
#: arcs by position.  Such a level reads at most ``1 / share`` times
#: the arcs the gather would, and no per-arc position array.  The
#: candidates' arc mass is bimodal on the stand-ins (the median level
#: holds 99.6%, 80% or 3.2% of the arcs), so the rule splits the dense
#: middle levels from the thin ones, where a whole scan would read
#: 30-100x more arcs (EXPERIMENTS.md, "Forks kept").
_DENSE_PULL_SHARE = 0.5

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Set bits of every byte value: a portable popcount (``np.bitwise_count``
#: needs numpy 2.0).
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)

#: One chunk of the dense pull's plan: ``(a, b, offsets, carry, dest)``
#: (see :meth:`MSBFSEngine._dense_pull`).
_PullChunk = Tuple[
    int, int, np.ndarray, Optional[int], Union[slice, np.ndarray]
]

#: A list-form level's result: ``(newly, new_bits, seen_rows)``.
_Fresh = Tuple[np.ndarray, np.ndarray, np.ndarray]


def plan_lane_width(num_arcs: int, batch_size: int) -> int:
    """Lane width (sources per sweep) for a batched traversal phase.

    Returns ``0`` when the batch should loop the serial single-source
    hybrid engine instead, else ``64``: a larger batch sweeps as
    64-lane groups.  The planner only ever affects *speed*: both
    widths produce bit-identical distances (lanes are independent), so
    routers may trust it blindly.
    """
    if batch_size < _SERIAL_BATCH_LIMIT or num_arcs == 0:
        # Edge-free graphs: every BFS is O(1); lane setup would dominate.
        return 0
    return LANE_WORD_BITS


def plan_sweep_width(consumed: int, unresolved: int) -> int:
    """Lanes for the next batch of a territory's FFO probe sweep.

    ``consumed`` is how many sweep probes the territory has consumed so
    far and ``unresolved`` how many of its members are still open, the
    columns each lane records.  The floor is the doubling rule: ``1``
    (one single-source probe) for the first ``_SERIAL_BATCH_LIMIT``
    probes, then as many lanes as the territory has consumed (8, 16,
    32, ...), so its unused lanes are fewer than the probes it used.
    Above the floor, a batch holds as many lanes as fit a block of
    ``_BLOCK_CELLS`` distance cells, when that is at least
    ``_SERIAL_BATCH_LIMIT`` lanes: on such a territory a 64-lane sweep
    costs only 4-7 single-source probes, while a sweep of 2-5 lanes
    over tens of thousands of columns costs more than its probes run
    alone (EXPERIMENTS.md, "Sweep width from the block").  From
    ``_BLOCK_CELLS / _SERIAL_BATCH_LIMIT`` open members on, the floor
    alone decides, so the block never grows a paper-scale batch.  The
    solver caps the width by its oracle's ``sweep_lanes`` and by the
    budget left.
    """
    floor = 1 if consumed < _SERIAL_BATCH_LIMIT else consumed
    wide = _BLOCK_CELLS // max(unresolved, 1)
    return max(floor, wide) if wide >= _SERIAL_BATCH_LIMIT else floor


class _MSWorkspace:
    """Pooled lane words for one graph.

    A sweep swaps the roles of ``frontier`` and ``next_mask`` (see
    :class:`MSBFSEngine`); ``scratch`` holds a bottom-up level's
    candidate words, written before every read.

    :dtype seen: uint64
    :dtype frontier: uint64
    :dtype next_mask: uint64
    :dtype scratch: uint64
    """

    __slots__ = (
        "seen",
        "frontier",
        "next_mask",
        "scratch",
        "guard",
        "__weakref__",
    )

    def __init__(self, num_vertices: int) -> None:
        self.seen = np.zeros(num_vertices, dtype=np.uint64)
        self.frontier = np.zeros(num_vertices, dtype=np.uint64)
        self.next_mask = np.zeros(num_vertices, dtype=np.uint64)
        self.scratch = np.empty(num_vertices, dtype=np.uint64)
        # None unless REPRO_SANITIZE is armed at construction time.
        self.guard = sanitize.guard_if_enabled("_MSWorkspace")

    def reset(self) -> None:
        """Zero the bitmaps in place (start of a new sweep)."""
        self.seen.fill(0)
        self.frontier.fill(0)
        self.next_mask.fill(0)


def _popcount(words: np.ndarray) -> int:
    """Total set bits of a C-contiguous ``uint64`` word array.

    :dtype words: uint64
    """
    return int(_BYTE_POPCOUNT[words.view(np.uint8)].sum())


def _mass(degrees: np.ndarray, mask: np.ndarray) -> int:
    """``degrees[mask].sum()``, as one contraction: ``np.einsum`` casts
    the boolean mask in buffered blocks, where ``np.dot`` would first
    copy it whole into ``int64`` (1.0 against 2.2 ms at n = 1M)."""
    return int(np.einsum("i,i->", degrees, mask))


def _set_bits(value: int) -> np.ndarray:
    """The set bits of ``value``, ascending, as plane indices: read off
    ``bin(value)``, with no ``(bits,)`` arange to shift and scan.

    :dtype bits: int64
    """
    bits = [b for b, c in enumerate(reversed(bin(value))) if c == "1"]
    return np.array(bits, dtype=np.int64)


def _unpack_lane_bits(words: np.ndarray) -> np.ndarray:
    """``(len(words), 64)`` ``uint8`` 0/1 matrix of packed lane words.

    ``words`` is a C-contiguous ``uint64`` vector; the fast path
    reinterprets it as 8 bytes per word and unpacks all lanes in one
    ``np.unpackbits`` call.  Big-endian hosts fall back to an explicit
    shift table.

    :dtype words: uint64
    """
    if _LITTLE_ENDIAN:
        return np.unpackbits(
            words.view(np.uint8).reshape(len(words), 8),
            axis=1,
            bitorder="little",
        )
    else:  # pragma: no cover - big-endian hosts only
        shifts = np.arange(LANE_WORD_BITS, dtype=np.uint64)
        return ((words[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _decode_planes(
    planes: np.ndarray, reached: np.ndarray, k: int
) -> np.ndarray:
    """Freshly-owned ``(k, len(reached))`` distances from bit planes.

    Bit ``i`` of ``planes[b, j]`` is bit ``b`` of lane ``i``'s distance
    to column ``j``, and bit ``i`` of ``reached[j]`` says whether lane
    ``i`` reached it at all (cells it did not are ``UNREACHED``).  The
    planes are summed target-major in the narrowest signed dtype that
    holds every distance and ``-1``, most significant plane first
    (doubling is a fast add, a shift of small ints is not), then
    transposed into ``int32`` once.

    :dtype planes: uint64
    :dtype reached: uint64
    :dtype cols: int32
    """
    acc = np.zeros(
        (len(reached), LANE_WORD_BITS),
        dtype=np.min_scalar_type(-(1 << len(planes))),
    )
    for plane in planes[::-1]:
        acc += acc
        acc |= _unpack_lane_bits(plane).view(np.int8)
    # Unreached cells hold no plane bit: 0 - 1 is UNREACHED.
    acc -= _unpack_lane_bits(~reached).view(np.int8)
    cols = np.empty((k, len(reached)), dtype=np.int32)
    cols[...] = acc[:, :k].T
    return cols


class MSBFSEngine(_Kernel):
    """Reusable direction-optimizing MS-BFS kernel for one graph.

    One engine per graph (see :func:`msengine_for`) owns the pooled
    ``(n,)`` lane bitmaps plus the CSR views the level kernels index.
    :meth:`run_batch` is the unit of work: one sweep serving up to
    ``LANE_WORD_BITS`` (64) sources.

    Parameters
    ----------
    graph:
        The immutable graph this engine traverses (see
        :func:`~repro.graph.engine.csr_pair`).
    backward:
        Traverse a directed graph's arcs in reverse (``dist(., s)``).
    """

    __slots__ = ("_work", "_pull_chunks")

    def __init__(self, graph: Any, backward: bool = False) -> None:
        super().__init__(graph, backward)
        self._work = _MSWorkspace(self._n)
        # The dense pull's plan, per chunk of _GATHER_CHUNK_ARCS in-arcs:
        # its arc range [a, b) of the in-CSR, the reduceat offsets of the
        # slices of the vertices with in-arcs that it holds, the vertex
        # whose slice began in an earlier chunk (None: none did) and
        # where the reductions go: a slice when those vertices are a
        # contiguous id range, else their ids.
        in_csr = self._in
        rows = np.flatnonzero(in_csr.degrees)
        starts = in_csr.indptr[rows]
        chunk_lo = np.arange(0, in_csr.num_arcs, self._chunk_arcs)
        chunk_hi = np.minimum(chunk_lo + self._chunk_arcs, in_csr.num_arcs)
        first = np.searchsorted(starts, chunk_lo, side="right") - 1
        last = np.searchsorted(starts, chunk_hi, side="left")
        self._pull_chunks: List[_PullChunk] = []
        for a, b, i, j in zip(
            chunk_lo.tolist(), chunk_hi.tolist(), first.tolist(), last.tolist()
        ):
            ids = rows[i:j]
            offsets = starts[i:j] - a
            lo, hi = int(ids[0]), int(ids[-1]) + 1
            carry = lo if offsets[0] < 0 else None
            offsets[0] = 0
            dest = slice(lo, hi) if hi - lo == len(ids) else ids
            self._pull_chunks.append((a, b, offsets, carry, dest))

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def run_batch(
        self,
        sources: Sequence[int],
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> np.ndarray:
        """Distances for up to ``LANE_WORD_BITS`` sources, one sweep.

        Returns a freshly-owned ``(len(sources), n)`` ``int32`` matrix;
        row ``i`` equals the level-synchronous BFS distances from
        ``sources[i]`` (``-1`` marks unreached vertices).  ``mode`` is
        ``"hybrid"`` (direction-optimizing, the default), ``"top-down"``
        or ``"bottom-up"`` (forced, for benchmarks and equivalence
        tests).

        The counter is credited with ``len(sources)`` traversal runs —
        the sweep stands in for that many BFSs — and with the sweep's
        actual arc work, so budget accounting matches the per-source
        loop it replaces.

        :dtype dist: int32
        """
        return self._sweep(sources, None, counter, mode)[1]

    def ecc_batch(
        self,
        sources: Sequence[int],
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> np.ndarray:
        """Eccentricity of every source (within its component), one sweep.

        Equal to ``run_batch(sources).max(axis=1)`` with ``UNREACHED``
        treated as 0, but no distance is recorded at all: a lane's
        eccentricity is the last level at which it gained fresh bits.
        This is the cheapest full-batch consumer (the naive ED path).

        :dtype ecc: int32
        """
        no_targets = np.empty(0, dtype=np.int64)
        return self._sweep(sources, no_targets, counter, mode)[0]

    def column_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(eccs, cols)``: eccentricities and the distances to ``targets``.

        ``targets`` must be strictly increasing vertex ids.  ``eccs``
        equals :meth:`ecc_batch` and the freshly-owned
        ``(len(sources), len(targets))`` matrix ``cols`` equals
        ``run_batch(sources)[:, targets]``, but only those columns are
        ever recorded: one ``(n,)`` column map plus about
        ``ceil(log2(ecc + 1))`` bit planes of ``len(targets)`` words,
        decoded into ``cols`` once after the sweep.
        The solver's FFO lane batches read nothing else (see
        :func:`repro.graph.batch.sweep_columns`), so the
        counter is credited as for a probe sweep: the sweep's work and
        one pending lane per source, labelled as single-source runs
        are, which the caller consumes or discards
        (:meth:`repro.counters.TraversalCounter.record_sweep`).

        :dtype tgt: int64
        :dtype eccs: int32
        :dtype cols: int32
        """
        n = self._n
        tgt = as_vertex_ids(targets, n)
        if np.any(tgt[1:] <= tgt[:-1]):
            raise InvalidParameterError("targets must be strictly increasing")
        if len(tgt) == n:
            # Every vertex, in order: record whole rows directly.
            return self._sweep(sources, None, counter, mode, pending=True)
        return self._sweep(sources, tgt, counter, mode, pending=True)

    def _sweep(
        self,
        sources: Sequence[int],
        targets: Optional[np.ndarray],
        counter: Optional["TraversalCounter"],
        mode: str,
        pending: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate, guard-bracket the sweep.

        ``targets`` lists the recorded columns (``None``: all of them).
        ``pending`` credits the counter with pending lanes instead of
        one run per source (see :meth:`column_batch`).  Returns
        ``(eccs, cols)``, both freshly owned; ``cols`` is
        ``(len(sources), len(targets))``.

        :dtype src: int64
        """
        self._check_mode(mode)
        n = self._n
        src = as_vertex_ids(sources, n)
        k = len(src)
        if k == 0:
            num_cols = n if targets is None else len(targets)
            return (
                np.empty(0, dtype=np.int32),
                np.empty((0, num_cols), dtype=np.int32),
            )
        if k > LANE_WORD_BITS:
            raise InvalidParameterError(
                f"a lane sweep holds at most {LANE_WORD_BITS} sources, "
                f"got {k}"
            )
        work = self._work
        guard = work.guard
        if guard is None:
            return self._sweep_impl(src, targets, counter, mode, pending, work)
        guard.begin_run()
        try:
            return self._sweep_impl(src, targets, counter, mode, pending, work)
        finally:
            guard.end_run()

    def _sweep_impl(
        self,
        src: np.ndarray,
        targets: Optional[np.ndarray],
        counter: Optional["TraversalCounter"],
        mode: str,
        pending: bool,
        work: _MSWorkspace,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The sweep itself (guard bookkeeping handled by the caller).

        :mutates work: the lane bitmaps are zeroed and rewritten level
            by level; the sweep owns them for its duration.
        :dtype col_of: int64
        :dtype eccs: int32
        """
        n = self._n
        k = len(src)
        # Column j's distances are bit-sliced: plane b holds, per lane,
        # bit b of the level at which that lane first reached column j.
        # col_of maps a vertex to its column (-1: not recorded); None
        # records every vertex at its own id, and an empty target list
        # records nothing.
        num_cols = n if targets is None else len(targets)
        col_of: Optional[np.ndarray] = None
        if targets is not None and num_cols:
            col_of = np.full(n, -1, dtype=np.int64)
            col_of[targets] = np.arange(num_cols, dtype=np.int64)
        planes = np.zeros((0, num_cols), dtype=np.uint64)
        work.reset()
        seen = work.seen
        # The two level bitmaps trade roles at every dense level: a
        # bottom-up level reads `frontier` and a level writes `spare`.
        frontier, spare = work.frontier, work.next_mask
        scratch = work.scratch
        lane_bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
        np.bitwise_or.at(frontier, src, lane_bits)
        np.bitwise_or.at(seen, src, lane_bits)

        out_deg, in_deg = self._out.degrees, self._in.degrees
        symmetric = out_deg is in_deg
        # The distinct sources, sorted: np.unique would also import
        # numpy.ma on its first call in a process.
        active = np.flatnonzero(frontier)
        # The frontier is held in one of two forms.  As a list: its
        # vertices, their lane words and out-degrees (gathered once per
        # level: they give m_frontier and the next top-down level's arc
        # slices); the frontier bitmap is written only when a bottom-up
        # level reads it, and `posted` lists the vertices it may hold
        # words at (None: any).  Or resident, after a dense level: the
        # frontier bitmap alone, until a top-down level lists it.
        words = frontier[active]
        counts = out_deg[active]
        posted: Optional[np.ndarray] = active
        resident = False
        num_active = len(active)
        # The sweep's record: arc and bitmap-word totals and, per level,
        # the direction, the lanes still live entering it and the
        # vertices holding a fresh lane bit.
        scanned = inspected = touched = 0
        directions: List[str] = []
        live_lanes: List[int] = []
        frontier_sizes: List[int] = []
        m_frontier = int(counts.sum())
        m_unvisited = self.num_arcs - int(in_deg[active].sum())
        prev_m_frontier = 0
        m_checked = 0
        hybrid = mode == "hybrid"
        direction = "bu" if mode == "bottom-up" else "td"
        n_over_beta = n / BETA
        level = 0
        # The lanes holding frontier bits: the OR of the frontier words.
        # A lane is live exactly at the levels up to its eccentricity,
        # so the per-level words give every eccentricity after the sweep.
        live = np.bitwise_or.reduce(words)
        lives: List[int] = []
        num_live = k
        pulled: Union[None, np.ndarray, _Fresh]
        while num_active:
            if hybrid:
                # The single-source engine's Beamer decision, driven by
                # the lanes' aggregate arc mass: enter bottom-up only
                # while the combined frontier still grows AND its arcs
                # dominate bottom-up's actual per-level cost; return
                # top-down once the active set thins out.  A bottom-up
                # level scans every vertex still missing a *live lane*,
                # so its cost is the in-arc mass of the unsaturated set —
                # on high-diameter graphs (grids) that stays near the
                # whole graph long after the union-untouched mass has
                # collapsed, which is why the cheap ``m_unvisited``
                # comparison alone over-fires there.  The exact mass is
                # an O(n) scan, so it only runs once the two cheap
                # tests and the ``n / beta`` frontier-density bar (the
                # same bar that triggers the return to top-down) pass —
                # and, after a failed check, not again until the
                # frontier mass has doubled (on a grid the cheap tests
                # pass for hundreds of plateaued levels; re-scanning
                # each one would cost more than bottom-up ever saves).
                if direction == "td":
                    if (
                        m_frontier > prev_m_frontier
                        and m_frontier * ALPHA > m_unvisited
                        and num_active >= n_over_beta
                        and m_frontier > 2 * m_checked
                    ):
                        m_unsaturated, _ = self._candidates(
                            seen, live, scratch
                        )
                        if m_frontier * ALPHA > m_unsaturated:
                            direction = "bu"
                        else:
                            m_checked = m_frontier
                elif num_active < n_over_beta:
                    direction = "td"
            if direction == "td":
                if resident:
                    active = np.flatnonzero(frontier)
                    words = frontier[active]
                    counts = out_deg[active]
                    posted, resident = active, False
                arcs = m_frontier
                pulled = self._top_down_level(
                    active, words, counts, arcs, seen, spare
                )
                scanned += arcs
            else:
                if not resident and posted is not active:
                    if posted is None:
                        frontier.fill(0)
                    else:
                        frontier[posted] = 0
                    frontier[active] = words
                    posted = active
                pulled, arcs = self._bottom_up_level(
                    frontier, seen, live, spare, scratch
                )
            inspected += arcs
            touched += num_active + arcs
            if pulled is None:
                break
            level += 1
            directions.append(direction)
            live_lanes.append(num_live)
            prev_m_frontier = m_frontier
            if isinstance(pulled, tuple):
                newly, new_bits, seen_rows = pulled
                num_active = len(newly)
                counts = out_deg[newly]
                m_frontier = int(counts.sum())
                # First-touch accounting must precede the seen update: a
                # vertex leaves the "unvisited" arc mass the first time
                # any lane reaches it.
                untouched = seen_rows == 0
                in_counts = counts if symmetric else in_deg[newly]
                m_unvisited -= int(in_counts[untouched].sum())
                seen[newly] = seen_rows | new_bits
                live = np.bitwise_or.reduce(new_bits)
                if resident:  # a thin pull read the resident bitmap
                    posted, resident = None, False
                active, words = newly, new_bits
            else:
                # A dense level left its fresh words in `spare` and
                # handed over `spare != 0`: they are the next frontier.
                frontier, spare = spare, frontier
                resident = True
                num_active = int(np.count_nonzero(pulled))
                m_frontier = _mass(out_deg, pulled)
                np.bitwise_or(seen, frontier, out=seen)
                m_unvisited = self.num_arcs - _mass(in_deg, seen != 0)
                live = np.bitwise_or.reduce(frontier)
            frontier_sizes.append(num_active)
            # Record the level on the target rows only: OR their fresh
            # words into the plane of every set bit of the level.  Fresh
            # bits are & ~seen by construction, so each cell's bits all
            # come from the one level that first reached it.
            if num_cols:
                if level >> len(planes):  # a power of two: one bit more
                    planes = np.vstack((planes, np.zeros(num_cols, np.uint64)))
                bits = _set_bits(level)
                if resident:
                    planes[bits] |= (
                        frontier if targets is None else frontier[targets]
                    )
                elif col_of is None:
                    planes[bits[:, None], newly] |= new_bits
                else:
                    rows = col_of[newly]
                    hit = rows >= 0
                    planes[bits[:, None], rows[hit]] |= new_bits[hit]
            lives.append(int(live))
            num_live = bin(lives[-1]).count("1")
        # Lane i is live at levels 1..ecc_i and at no later one.
        eccs = (
            _unpack_lane_bits(np.array(lives, dtype=np.uint64))
            .sum(axis=0, dtype=np.int32)[:k]
        )
        if counter is not None:
            # Every (vertex, lane) pair reached holds one bit of `seen`.
            visited = _popcount(seen)
            if pending:
                counter.record_sweep(
                    scanned,
                    visited,
                    inspected,
                    [f"{self._label}:{s}" for s in src.tolist()],
                )
            else:
                # The sweep stands in for k runs.
                counter.record(scanned, visited, inspected=inspected, runs=k)
        tracer = get_tracer()
        if tracer.enabled:
            # One event per sweep, assembled from the collected record —
            # per-level emission would put sink calls on the hot path.
            tracer.event(
                "msbfs.run",
                num_sources=k,
                lane_words=1,
                mode=mode,
                levels=level,
                edges_scanned=scanned,
                edges_inspected=inspected,
                words_touched=touched,
                directions=directions,
                live_lanes=live_lanes,
                frontier_sizes=frontier_sizes,
            )
        reached = seen if targets is None else seen[targets]
        # Consumers get the source-major convention of the seed kernel.
        return eccs, _decode_planes(planes, reached, k)

    def _top_down_level(
        self,
        active: np.ndarray,
        words: np.ndarray,
        counts: np.ndarray,
        arcs: int,
        seen: np.ndarray,
        next_mask: np.ndarray,
    ) -> Optional[_Fresh]:
        """OR every active vertex's lane word onto its out-arcs' targets.

        ``words`` are the active vertices' frontier words, ``counts``
        their out-degrees and ``arcs`` the degrees' sum (the arcs the
        level scans).  Returns ``(newly, new_bits, seen_rows)`` where
        ``new_bits[i]`` holds the lanes that first reached ``newly[i]``
        and ``seen_rows`` the pre-update ``seen`` words of ``newly`` —
        fresh copies, never views of the pooled bitmaps — or None if no
        lane reached a new vertex.

        Arcs that fit one gather chunk run fused at frontier cost: the
        distinct targets come from a slot write into ``next_mask``'s
        own words, and only they are read and zeroed.  More arcs run
        chunk by chunk and scan all n words once (:meth:`_spread`).

        :mutates next_mask: scratch, clean (no bit outside ``seen``) on
            entry and on return.
        """
        if arcs > self._chunk_arcs:
            return self._spread(active, words, counts, arcs, seen, next_mask)
        if arcs == 0:
            return None
        ((_lo, _hi, arc_dst, _seg, _counts),) = self._arc_chunks(
            self._out, active, counts, arcs
        )
        targets = distinct_ids(arc_dst, next_mask.view(np.int64))
        next_mask[targets] = 0
        np.bitwise_or.at(next_mask, arc_dst, words.repeat(counts))
        reached = next_mask[targets]
        next_mask[targets] = 0
        seen_rows = seen[targets]
        fresh_bits = reached & ~seen_rows
        rows = fresh_bits != 0
        newly = targets[rows]
        if len(newly) == 0:
            return None
        return newly, fresh_bits[rows], seen_rows[rows]

    def _spread(
        self,
        active: np.ndarray,
        words: np.ndarray,
        counts: np.ndarray,
        arcs: int,
        seen: np.ndarray,
        next_mask: np.ndarray,
    ) -> Optional[_Fresh]:
        """:meth:`_top_down_level` of more than one gather chunk.

        Each chunk ORs its arcs' words into ``next_mask``; the fresh
        words are then ``next & ~seen``, found with one scan of all n.

        :mutates next_mask: scratch, clean on entry and all-zero on
            return.
        """
        for lo, hi, arc_dst, _seg, seg_counts in self._arc_chunks(
            self._out, active, counts, arcs
        ):
            arc_words = words[lo:hi].repeat(seg_counts)
            np.bitwise_or.at(next_mask, arc_dst, arc_words)
        # next & ~seen, in place: (next | seen) ^ seen.
        np.bitwise_or(next_mask, seen, out=next_mask)
        np.bitwise_xor(next_mask, seen, out=next_mask)
        newly = np.flatnonzero(next_mask)
        if len(newly) == 0:
            return None
        new_bits = next_mask[newly]
        next_mask[newly] = 0
        return newly, new_bits, seen[newly]

    def _candidates(
        self, seen: np.ndarray, live: np.ndarray, scratch: np.ndarray
    ) -> Tuple[int, np.ndarray]:
        """``(arcs, missing)``: the vertices still missing a live lane,
        as an ``(n,)`` mask, and their in-arc mass.

        :mutates scratch: holds the candidate words ``~seen & live``.
        """
        np.bitwise_not(seen, out=scratch)
        np.bitwise_and(scratch, live, out=scratch)
        missing = scratch != 0
        return _mass(self._in.degrees, missing), missing

    def _bottom_up_level(
        self,
        frontier: np.ndarray,
        seen: np.ndarray,
        live: np.ndarray,
        spare: np.ndarray,
        scratch: np.ndarray,
    ) -> Tuple[Union[None, np.ndarray, _Fresh], int]:
        """Unvisited vertices OR-reduce their in-neighbors' frontier words.

        A candidate is any vertex with in-arcs that is still missing a
        *live* lane — vertices unseen only by retired lanes are never
        probed again.  ``frontier`` must hold the frontier's words at
        every vertex.  Returns ``(pulled, arcs)``: ``arcs`` is the
        candidates' in-arc mass, credited in either form, and
        ``pulled`` is None if no lane gained a vertex.  A level whose
        candidates hold at least ``_DENSE_PULL_SHARE`` of the in-arcs
        pulls densely (:meth:`_dense_pull`, reading at most twice that
        many arcs) into ``spare``, which then holds the fresh words, and
        ``pulled`` is their ``spare != 0`` mask; any other gathers the
        candidates' arcs (:meth:`_gather_pull`) and ``pulled`` lists
        them as :meth:`_top_down_level` does.  Both give the same words.

        :mutates spare: clean on entry; the dense form leaves the fresh
            words in it, which are clean once ``seen`` takes them.
        :mutates scratch: the candidate words (:meth:`_candidates`).
        """
        arcs, missing = self._candidates(seen, live, scratch)
        if arcs == 0:
            return None, 0
        if arcs >= _DENSE_PULL_SHARE * self.num_arcs:
            self._dense_pull(frontier, scratch, spare)
            fresh = spare != 0
            return (fresh if fresh.any() else None), arcs
        ids = np.flatnonzero(missing)
        cand = ids[self._in.degrees[ids] > 0]
        return self._gather_pull(frontier, seen, cand, arcs), arcs

    def _gather_pull(
        self,
        frontier: np.ndarray,
        seen: np.ndarray,
        cand: np.ndarray,
        arcs: int,
    ) -> Optional[_Fresh]:
        """``(newly, new_bits, seen_rows)`` of the candidates ``cand``,
        whose in-arcs number ``arcs`` (None: no lane gained a vertex).

        Gathers the candidates' in-arcs by position, one chunk at a
        time (:meth:`_arc_chunks`); a candidate whose arcs straddle two
        chunks ORs both partial reductions.
        """
        reduced = np.zeros(len(cand), dtype=np.uint64)
        for lo, hi, arc_dst, seg_starts, _counts in self._arc_chunks(
            self._in, cand, self._in.degrees[cand], arcs
        ):
            # Candidates have arcs, so every segment is non-empty.
            part = np.bitwise_or.reduceat(frontier.take(arc_dst), seg_starts)
            np.bitwise_or(reduced[lo:hi], part, out=reduced[lo:hi])
        seen_cand = seen[cand]
        fresh_bits = reduced & ~seen_cand
        rows = fresh_bits != 0
        if not rows.any():
            return None
        return cand[rows], fresh_bits[rows], seen_cand[rows]

    def _dense_pull(
        self, frontier: np.ndarray, cand: np.ndarray, out: np.ndarray
    ) -> None:
        """Every vertex's fresh words, pulled from its in-neighbors'
        frontier words, into ``out``; ``cand`` holds the candidate
        words ``~seen & live``.

        Reads the in-CSR in the contiguous chunks of the plan built with
        the engine: per chunk one gather of the frontier words at its
        arc endpoints and one ``np.bitwise_or.reduceat`` at the chunk's
        precomputed offsets, written as a slice of ``out`` when the
        chunk's vertices are a contiguous id range; a slice straddling
        two chunks ORs both partial reductions.  Then ``out &= cand``:
        the frontier holds only live lanes, so that is ``& ~seen``, and
        it drops the clean word a vertex with no in-arcs kept.

        :mutates out: clean on entry; holds the fresh words on return.
        """
        indices = self._in.indices
        for a, b, offsets, carry, dest in self._pull_chunks:
            part = np.bitwise_or.reduceat(
                np.take(frontier, indices[a:b]), offsets
            )
            if carry is not None:
                part[0] |= out[carry]
            out[dest] = part
        np.bitwise_and(out, cand, out=out)


def msengine_for(graph: Any, backward: bool = False) -> MSBFSEngine:
    """The cached :class:`MSBFSEngine` of ``graph`` (see
    :func:`repro.graph.engine._kernel_for`)."""
    return _kernel_for(MSBFSEngine, graph, backward)
