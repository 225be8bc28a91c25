"""Seeded synthetic graph generators.

The paper evaluates on 20 real graphs of up to 4.65 billion edges
(Table 3).  Those inputs are far beyond what a pure-Python BFS can sweep in
this environment, so the dataset registry substitutes each of them with a
synthetic stand-in of the same *structural family* — the property the
paper's results actually depend on is the core–periphery / small-world
shape (dense centre, thin far periphery) which makes ``|F2|`` tiny and the
FFO fronts of different reference nodes overlap.

Four families cover the paper's dataset types:

* social networks  → :func:`barabasi_albert` (preferential attachment),
* web graphs       → :func:`copying_model` (Kumar et al. copying process),
* internet topology→ preferential attachment with lower density,
* contact networks → :func:`watts_strogatz` rewired lattices.

The ``graft_*`` methods of :class:`EdgeList` hang handles, deep traps
and branches off a core, reproducing the remote periphery that real
crawls have and that gives the eccentricity distribution its spread
(Figure 15 shows 10–15 distinct eccentricity values per graph).  A
stand-in is one edge list — the core's edges (:func:`barabasi_albert_edges`,
:func:`copying_model_edges`) with its periphery grafted on — assembled
into CSR once; the ``attach_*`` functions run the same grafts on a
finished :class:`Graph`.

Deterministic toys (:func:`path_graph`, :func:`cycle_graph`,
:func:`star_graph`, :func:`complete_graph`, :func:`grid_graph`,
:func:`balanced_tree`) serve the test suite, and
:func:`paper_example_graph` rebuilds the 13-node running example of
Figure 1 exactly.

Every stochastic generator takes an explicit integer seed and builds the
graph that numpy's ``default_rng(seed)`` would draw, bit for bit, on any
platform.

No generator hands the builder one edge per call.  Deterministic edges
(paths, spines, grids, trees) are laid out as whole arrays; the
``attach_*`` recipes draw their random lengths in one sized call.  Where
the random process is inherently sequential (each draw depends on the
graph so far), the draws are not made one ``Generator`` call at a time:
:class:`_DrawReplayer` fetches the seed's raw PCG64 words in bounded
chunks and decodes them in plain Python integers, exactly as numpy's
``Generator`` does (``tests/data/golden_generators.json`` pins the
result).  The contract it replays, for the default ``PCG64``:

* a 32-bit draw is the low half of the next word; the high half is
  buffered and answers the following 32-bit draw;
* ``random()`` is ``(word >> 11) * 2**-53`` of the next whole word and
  leaves the buffered half alone;
* ``integers(0, high)`` for ``high <= 2**32`` is Lemire's method on
  32-bit draws: ``m = draw * high`` is rejected while its low 32 bits
  are ``< 2**32 % high``, the answer is ``m >> 32``, and ``high == 1``
  draws nothing.

The endpoints of every edge collect in typed local buffers that reach
the CSR assembly once.
"""

from __future__ import annotations

import itertools
from array import array
from typing import List, Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSR, Graph, vertex_count

__all__ = [
    "EdgeList",
    "barabasi_albert",
    "barabasi_albert_edges",
    "watts_strogatz",
    "copying_model",
    "copying_model_edges",
    "attach_handles",
    "attach_deep_trap",
    "attach_branches",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "balanced_tree",
    "paper_example_graph",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


#: PCG64 words a :class:`_DrawReplayer` fetches per ``random_raw`` call;
#: a generator holds at most this many undecoded words, however many it
#: draws.
_RAW_CHUNK = 4096

#: ``random()``'s scale: a 53-bit integer times this is a double in [0, 1).
_UNIT = 2.0**-53


class _DrawReplayer:
    """The draws of ``np.random.default_rng(seed)``, decoded in Python.

    ``words`` yields the seed's raw PCG64 words as ``int``, fetched
    :data:`_RAW_CHUNK` at a time; ``half`` is the buffered high half of
    the last word a 32-bit draw split (``-1`` when none is).  The
    methods follow the contract in the module docstring, one call per
    draw; :func:`barabasi_albert` and :func:`copying_model` inline the
    same arithmetic on local variables in their loops, and
    ``tests/graph/test_draw_replay.py`` checks both against numpy.
    """

    __slots__ = ("words", "half")

    def __init__(self, seed: int) -> None:
        bits = np.random.default_rng(seed).bit_generator
        self.words = itertools.chain.from_iterable(
            bits.random_raw(_RAW_CHUNK).tolist()
            for _ in itertools.repeat(None)
        )
        self.half = -1

    def next_uint32(self) -> int:
        """The next 32-bit draw: a word's low half, then its high half."""
        half = self.half
        if half >= 0:
            self.half = -1
            return half
        word = next(self.words)
        self.half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1) from one whole word."""
        return (next(self.words) >> 11) * _UNIT

    def integers(self, high: int) -> int:
        """``Generator.integers(0, high)`` for ``1 <= high <= 2**32``."""
        if high == 1:
            return 0
        while True:
            m = self.next_uint32() * high
            low = m & 0xFFFFFFFF
            if low >= high or low >= 4294967296 % high:
                return m >> 32


# ----------------------------------------------------------------------
# One edge list per graph, assembled once
# ----------------------------------------------------------------------
class EdgeList:
    """An undirected graph under construction: its edges, each held
    once, and the current degree of every vertex.

    A stand-in is a family core with a periphery grafted on.  The core
    (:func:`barabasi_albert_edges`, :func:`copying_model_edges`) hands
    over its edge list; the ``graft_*`` methods hang new paths off it,
    and :meth:`graph` assembles the CSR once.  An edge list never holds
    a self-loop or an edge twice, and a graft only ever joins a new
    vertex to the graph, so :attr:`degrees` stays exact by arithmetic
    and the grafts choose their anchors with no intermediate
    :class:`Graph`.  The public ``attach_*`` functions run the same
    grafts on a copy of a finished graph's edges.

    Edges are ``int32`` chunks, ``_tails[i][j] -- _heads[i][j]``.
    ``EdgeList(n, tails, heads)`` trusts its caller that the edges
    ``{tails[j], heads[j]}`` are distinct and free of self-loops (ids
    are checked); :meth:`of_graph` copies a graph's.

    :dtype degrees: int64
    """

    __slots__ = ("num_vertices", "degrees", "_tails", "_heads")

    def __init__(
        self, num_vertices: int, tails: np.ndarray, heads: np.ndarray
    ) -> None:
        self.num_vertices = 0
        self.degrees = np.zeros(0, dtype=np.int64)
        self._tails: Optional[List[np.ndarray]] = []
        self._heads: List[np.ndarray] = []
        self._add(tails, heads, num_vertices)

    @classmethod
    def of_graph(cls, graph: Graph) -> "EdgeList":
        """The edges of ``graph`` (each ``u -- v`` once, from ``u < v``)."""
        tails = graph.out_csr.arc_sources()
        upper = tails < graph.indices
        return cls(graph.num_vertices, tails[upper], graph.indices[upper])

    def _add(
        self, tails: np.ndarray, heads: np.ndarray, added: int = 0
    ) -> None:
        """Append ``added`` new vertices and the new edges ``tails[j] --
        heads[j]``, counting the edges into both ends' degrees."""
        if self._tails is None:
            raise InvalidParameterError("edge list already assembled")
        n = self.num_vertices + added
        tails = np.ascontiguousarray(tails, dtype=np.int32)
        heads = np.ascontiguousarray(heads, dtype=np.int32)
        vertex_count(tails, heads, n)
        degrees = np.zeros(n, dtype=np.int64)
        degrees[: self.num_vertices] = self.degrees
        degrees += np.bincount(tails, minlength=n)
        degrees += np.bincount(heads, minlength=n)
        self.num_vertices, self.degrees = n, degrees
        self._tails.append(tails)
        self._heads.append(heads)

    def hang_paths(self, heads: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Hang path ``i`` of ``lengths[i] >= 1`` new vertices off
        ``heads[i]``.

        New ids run consecutively from :attr:`num_vertices`, path by
        path and along each path away from its head.  Returns each
        path's last vertex.

        :dtype lengths: int64
        """
        first = self.num_vertices
        ends = np.cumsum(lengths, dtype=np.int64)
        starts = ends - lengths
        added = int(ends[-1]) if len(ends) else 0
        new = np.arange(first, first + added, dtype=np.int64)
        parents = new - 1
        parents[starts] = heads
        self._add(parents, new, added)
        return first + ends - 1

    def graft_handles(
        self, num_handles: int, max_length: int, seed: int = 0
    ) -> None:
        """Attach "handles" — long paths whose *both* ends join the graph.

        Each handle ``i`` is a path of ``max_length - (i % 5)`` new
        vertices connecting two distinct low-degree vertices, forming a
        long cycle through the core.  Unlike tree tendrils, handles have
        no cut vertex, so no single BFS source is a perfect upper-bound
        witness for the vertices inside them: shortest paths can leave
        through either end, and the two routes disagree by parity.  This
        is the structure that makes bound-based algorithms like BoundECC
        pay roughly one BFS per stuck vertex while IFECC's Lemma 3.3 cap
        closes them wholesale — the separation Figure 8 measures on real
        small-world graphs.

        ``seed`` jitters each handle's length by one.
        """
        _require(num_handles >= 0, "num_handles must be non-negative")
        _require(max_length >= 3, "max_length must be >= 3")
        _require(
            2 * num_handles <= self.num_vertices,
            "graph too small for this many handles",
        )
        rng = np.random.default_rng(seed)
        anchors = np.argsort(self.degrees, kind="stable")[: 2 * num_handles]
        jitter = rng.integers(0, 2, size=num_handles)
        i = np.arange(num_handles, dtype=np.int64)
        lengths = np.maximum(3, max_length - i % 5 - jitter)
        last = self.hang_paths(anchors[0::2], lengths)
        self._add(last, anchors[1::2])

    def graft_deep_trap(
        self,
        depth: int,
        branch_length: int = 3,
        anchor: int | None = None,
    ) -> None:
        """Attach one deep caterpillar subtree (a "crawler trap").

        A spine of ``depth`` new vertices hangs from ``anchor`` (default:
        the lowest-degree vertex, the smallest id on a tie); every spine
        vertex on the lower half sprouts a side path of
        ``branch_length``.  The trap is the unique deepest region of the
        graph, behind a single cut vertex — exactly the structure that
        makes the FFO fronts of all reference nodes coincide (Figure 5):
        from any central hub, the trap's internal ranking is a fixed
        ordering shifted by a common constant.
        """
        _require(depth >= 1, "depth must be >= 1")
        _require(branch_length >= 0, "branch_length must be >= 0")
        if anchor is None:
            anchor = int(np.argmin(self.degrees))
        first = self.num_vertices
        self.hang_paths(np.array([anchor]), np.array([depth]))
        if branch_length:
            spine_lower = np.arange(first + depth // 2, first + depth)
            self.hang_paths(
                spine_lower,
                np.full(len(spine_lower), branch_length, dtype=np.int64),
            )

    def graft_branches(
        self,
        count: int,
        max_depth: int,
        seed: int = 0,
        max_anchor_id: int | None = None,
    ) -> None:
        """Attach ``count`` tendril branches of random depth
        ``3..max_depth`` at distinct low-degree anchors.

        Scattered branches diversify which vertex is farthest from
        where, widening the eccentricity distribution (Figure 15)
        without creating a second globally-deepest region.
        ``max_anchor_id`` restricts the anchor pool to vertices with
        smaller ids — used to keep branches off periphery vertices an
        earlier graft added.  The lowest-degree vertex of the pool gets
        no branch (after a deep trap, that is usually the trap's own
        anchor).
        """
        _require(count >= 0, "count must be non-negative")
        _require(max_depth >= 3, "max_depth must be >= 3")
        pool = self.num_vertices if max_anchor_id is None else max_anchor_id
        _require(0 < pool <= self.num_vertices, "invalid anchor pool")
        _require(count < pool, "anchor pool too small for this many branches")
        rng = np.random.default_rng(seed)
        anchors = np.argsort(self.degrees[:pool], kind="stable")
        depths = rng.integers(3, max_depth + 1, size=count)
        self.hang_paths(anchors[1: 1 + count], depths)

    def graph(self) -> Graph:
        """Assemble the :class:`Graph`: one :meth:`CSR.from_arcs` over
        both arcs of every edge.

        The list is spent: its chunks are released before the assembly
        sorts, and a later graft or :meth:`graph` raises.
        """
        tails, heads = self._tails, self._heads
        if tails is None:
            raise InvalidParameterError("edge list already assembled")
        self._tails, self._heads = None, []
        src = np.concatenate(tails + heads)
        dst = np.concatenate(heads + tails)
        del tails, heads
        return Graph.from_csr(CSR.from_arcs(self.num_vertices, src, dst))


# ----------------------------------------------------------------------
# Random families
# ----------------------------------------------------------------------
def barabasi_albert_edges(n: int, attach: int, seed: int = 0) -> EdgeList:
    """The edge list of :func:`barabasi_albert`, before assembly."""
    _require(attach >= 1, "attach must be >= 1")
    _require(n > attach, "n must exceed attach")
    words, half = _DrawReplayer(seed).words, -1
    # Vertex id repeated once per incident edge endpoint; each edge adds
    # its two endpoints in turn, so the urn is also the edge list (each
    # edge once: a new vertex draws a set of distinct earlier targets).
    urn: List[int] = []
    seed_size = attach + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            urn.extend((u, v))
    for v in range(seed_size, n):
        targets: set = set()
        high = len(urn)  # >= 2, and fixed until v's edges join the urn
        while len(targets) < attach:
            # integers(0, high), inlined (see _DrawReplayer).
            while True:
                if half < 0:
                    word = next(words)
                    m = (word & 0xFFFFFFFF) * high
                    half = word >> 32
                else:
                    m = half * high
                    half = -1
                low = m & 0xFFFFFFFF
                if low >= high or low >= 4294967296 % high:
                    break
            targets.add(urn[m >> 32])
        for t in targets:
            urn.extend((v, t))
    ends = np.array(urn, dtype=np.int32)
    del urn
    return EdgeList(n, ends[0::2], ends[1::2])


def barabasi_albert(n: int, attach: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph (Barabási–Albert).

    Starts from a clique on ``attach + 1`` vertices; each new vertex
    attaches to ``attach`` existing vertices chosen proportionally to
    degree (via the standard repeated-endpoint urn trick).
    """
    return barabasi_albert_edges(n, attach, seed).graph()


def watts_strogatz(n: int, k: int, beta: float, seed: int = 0) -> Graph:
    """Watts–Strogatz small-world graph.

    A ring lattice where each vertex connects to its ``k`` nearest
    neighbors (``k`` even), with each edge rewired to a random endpoint
    with probability ``beta``.
    """
    _require(n >= 3, "n must be >= 3")
    _require(k >= 2 and k % 2 == 0, "k must be even and >= 2")
    _require(k < n, "k must be < n")
    _require(0.0 <= beta <= 1.0, "beta must be in [0, 1]")
    draws = _DrawReplayer(seed)
    # One endpoint per (u, offset), rewired or not, in loop order.
    targets: List[int] = []
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if draws.random() < beta:
                w = draws.integers(n)
                attempts = 0
                while (w == u or w == v) and attempts < 8:
                    w = draws.integers(n)
                    attempts += 1
                v = w if w != u else v
            targets.append(v)
    builder = GraphBuilder(num_vertices=n)
    builder.add_edge_arrays(
        np.repeat(np.arange(n, dtype=np.int64), k // 2),
        np.array(targets, dtype=np.int64),
    )
    return builder.build()


def copying_model_edges(
    n: int,
    out_degree: int = 4,
    copy_probability: float = 0.7,
    seed: int = 0,
) -> EdgeList:
    """The edge list of :func:`copying_model`, before assembly.

    The copy rule reads a prototype's *link list*: its out-links in
    draw order, then its in-links in arrival order (a seed-clique
    vertex's out-links are the other clique vertices, ascending).  A
    copied link indexes that list as it is at draw time, so it has
    grown when an earlier link of the new page landed on the prototype.
    The lists live in typed storage, not in Python lists of ints:

    * ``out[v * d: v * d + out_len[v]]`` (one flat ``array('i')``, ``d =
      out_degree``) holds ``v``'s out-links; a draw of ``v`` itself is
      dropped, so a row may be short;
    * ``ins[v]`` (one growing ``array('i')`` per vertex) holds the pages
      that linked to ``v``, once per link.

    The in-links are only the out-links reversed, so they are freed
    first; the edges are then the out-table's rows, sorted in place,
    with repeated links and the clique's second copies dropped.
    """
    _require(out_degree >= 1, "out_degree must be >= 1")
    _require(0.0 <= copy_probability <= 1.0, "copy_probability in [0, 1]")
    _require(n > out_degree + 1, "n must exceed out_degree + 1")
    words, half = _DrawReplayer(seed).words, -1
    d = out_degree
    seed_size = d + 1
    out = array("i", bytes(4 * n * d))
    out_len = array("i", bytes(4 * n))
    ins = [array("i") for _ in range(n)]
    for u in range(seed_size):
        out[u * d: u * d + d] = array(
            "i", [w for w in range(seed_size) if w != u]
        )
        out_len[u] = d
    # integers(0, high) and random() are inlined (see _DrawReplayer).
    for v in range(seed_size, n):
        while True:  # the prototype: integers(0, v)
            if half < 0:
                word = next(words)
                m = (word & 0xFFFFFFFF) * v
                half = word >> 32
            else:
                m = half * v
                half = -1
            low = m & 0xFFFFFFFF
            if low >= v or low >= 4294967296 % v:
                break
        proto = m >> 32
        proto_row, proto_out, proto_in = proto * d, out_len[proto], ins[proto]
        row = end = v * d
        for _ in range(d):
            links = proto_out + len(proto_in)
            if links and (next(words) >> 11) * _UNIT < copy_probability:
                high, copied = links, True
            else:
                high, copied = v, False
            pick = 0
            if high > 1:
                while True:
                    if half < 0:
                        word = next(words)
                        m = (word & 0xFFFFFFFF) * high
                        half = word >> 32
                    else:
                        m = half * high
                        half = -1
                    low = m & 0xFFFFFFFF
                    if low >= high or low >= 4294967296 % high:
                        break
                pick = m >> 32
            if not copied:
                target = pick
            elif pick < proto_out:
                target = out[proto_row + pick]
            else:
                target = proto_in[pick - proto_out]
            if target != v:
                out[end] = target
                end += 1
                ins[target].append(v)
        out_len[v] = end - row
    del ins
    table = np.frombuffer(out, dtype=np.int32).reshape(n, d)
    # Every target is an earlier page, so marking the unused slots with
    # n and keeping targets below their row's id drops those slots and
    # keeps each clique edge once, from its larger end.
    table[np.arange(d) >= np.frombuffer(out_len, dtype=np.int32)[:, None]] = n
    table.sort(axis=1)
    keep = table < np.arange(n, dtype=np.int32)[:, None]
    keep[:, 1:] &= table[:, 1:] != table[:, :-1]  # a repeated link
    tails = np.repeat(np.arange(n, dtype=np.int32), keep.sum(axis=1))
    heads = table[keep]
    del table, out, keep
    return EdgeList(n, tails, heads)


def copying_model(
    n: int,
    out_degree: int = 4,
    copy_probability: float = 0.7,
    seed: int = 0,
) -> Graph:
    """Web-graph copying model (Kumar et al. 2000), undirected variant.

    Each new page picks a random prototype page and creates ``out_degree``
    links; each link copies one of the prototype's links with probability
    ``copy_probability`` and otherwise points to a uniformly random
    earlier page.  Copying concentrates links on old popular pages,
    producing the heavy-tailed, densely-cored structure of real web crawls.
    """
    return copying_model_edges(n, out_degree, copy_probability, seed).graph()


def attach_handles(
    graph: Graph,
    num_handles: int,
    max_length: int,
    seed: int = 0,
) -> Graph:
    """``graph`` with handles grafted on (:meth:`EdgeList.graft_handles`)."""
    edges = EdgeList.of_graph(graph)
    edges.graft_handles(num_handles, max_length, seed)
    return edges.graph()


def attach_deep_trap(
    graph: Graph,
    depth: int,
    branch_length: int = 3,
    anchor: int | None = None,
) -> Graph:
    """``graph`` with a deep trap grafted on
    (:meth:`EdgeList.graft_deep_trap`)."""
    edges = EdgeList.of_graph(graph)
    edges.graft_deep_trap(depth, branch_length, anchor)
    return edges.graph()


def attach_branches(
    graph: Graph,
    count: int,
    max_depth: int,
    seed: int = 0,
    max_anchor_id: int | None = None,
) -> Graph:
    """``graph`` with tendril branches grafted on
    (:meth:`EdgeList.graft_branches`)."""
    edges = EdgeList.of_graph(graph)
    edges.graft_branches(count, max_depth, seed, max_anchor_id)
    return edges.graph()


# ----------------------------------------------------------------------
# Deterministic toys
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices (diameter n-1)."""
    _require(n >= 1, "n must be >= 1")
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges((i, i + 1) for i in range(n - 1))
    return builder.build()


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices (all eccentricities = floor(n/2))."""
    _require(n >= 3, "n must be >= 3")
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges((i, (i + 1) % n) for i in range(n))
    return builder.build()


def star_graph(n: int) -> Graph:
    """Star with one hub (vertex 0) and ``n - 1`` leaves."""
    _require(n >= 2, "n must be >= 2")
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges((0, i) for i in range(1, n))
    return builder.build()


def complete_graph(n: int) -> Graph:
    """Complete graph (all eccentricities = 1 for n >= 2)."""
    _require(n >= 1, "n must be >= 1")
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges((u, v) for u in range(n) for v in range(u + 1, n))
    return builder.build()


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid; vertex ``(r, c)`` has id ``r * cols + c``."""
    _require(rows >= 1 and cols >= 1, "rows and cols must be >= 1")
    builder = GraphBuilder(num_vertices=rows * cols)
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    builder.add_edge_arrays(ids[:, :-1], ids[:, 1:])  # along each row
    builder.add_edge_arrays(ids[:-1, :], ids[1:, :])  # down each column
    return builder.build()


def balanced_tree(branching: int, height: int) -> Graph:
    """Complete ``branching``-ary tree of the given height (root id 0)."""
    _require(branching >= 1, "branching must be >= 1")
    _require(height >= 0, "height must be >= 0")
    # Ids are level order, so child k >= 1 hangs off (k - 1) // branching.
    n = sum(branching**level for level in range(height + 1))
    builder = GraphBuilder(num_vertices=n)
    children = np.arange(1, n, dtype=np.int64)
    builder.add_edge_arrays((children - 1) // branching, children)
    return builder.build()


def paper_example_graph() -> Graph:
    """The 13-node running example of Figure 1.

    Node ids are 0-based: paper vertex ``v_i`` is id ``i - 1``.  The edge
    set is reverse-engineered so that every quantity the paper states about
    the example holds:

    * 13 nodes and 15 edges, radius 3, diameter 5 (Examples 2.1, 2.3);
    * deg(v10) = 2 and dist(v10, v12) = 2 (Example 2.1);
    * ecc(v10) = 4 with farthest node v1 at dist(v1, v10) = 4 (Example 2.3);
    * v13 and v7 are the two highest-degree vertices (Example 3.2);
    * the FFOs of Figure 2: L^{v13} = <v1, v2, v3, ..., v13> (distances
      4, 3, 2, 2, 2, 2, 1, ..., 0) and L^{v7} = <v1, v2, v3, v8, v9, v10,
      v11, v12, v4, v5, v6, v13, v7> (distances 4, 3, 2, 2, ..., 1, 1, 0);
    * ecc(v13) = 4 and the layer structure of Example 5.2: S1 = {v7..v12},
      S2 = {v3, v4, v5, v6}, S3 = {v2}, S4 = {v1};
    * dist(v9, v13) = 1, dist(v1, v9) = 3 and ecc(v9) = 3 so the probe
      trace of Example 3.4 (bounds 3/5 -> 3/4 -> 3/3) replays exactly;
    * the reference territories of Example 4.6: V^{v13} = {v1, v2, v3, v8,
      v9, v10, v11, v12} and V^{v7} = {v4, v5, v6} (ties go to v13, the
      higher-degree reference).
    """
    edges_1based = [
        (1, 2),        # v1 - v2: the tendril realising layers S4 and S3
        (2, 3),        # v2 - v3
        (3, 9),        # v3 reaches the hub v13 through v9
        (3, 4),        # ... and the v7 cluster through v4
        (4, 7),        # v4, v5, v6 cluster on hub v7
        (5, 7),
        (6, 7),
        (4, 5),
        (9, 10),       # gives dist(v1, v10) = 4 while keeping deg(v10) = 2
        (7, 13),       # hub - hub edge
        (8, 13),       # v8..v12 form layer 1 around v13
        (9, 13),
        (10, 13),
        (11, 13),
        (12, 13),
    ]
    builder = GraphBuilder(num_vertices=13)
    builder.add_edges((u - 1, v - 1) for u, v in edges_1based)
    return builder.build()
