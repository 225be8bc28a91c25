"""Shared helpers importable from any test module: graph builders and
inspectors, the generators the golden corpus pins, the per-call
references of the sequential generators, a benchmark-script importer,
the test-only oracles (the |V|-BFS eccentricities, Theorems 5.5/5.6, all-pairs BFS,
shortest paths, the one-rule bound updates) and a level-by-level
checker of the MS-BFS engine's lane bitmaps."""

from __future__ import annotations

import heapq
import importlib.util
import tracemalloc
from collections import deque
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.naive import naive_eccentricities
from repro.core.bounds import BoundState
from repro.core.result import EccentricityResult
from repro.core.stratify import stratify
from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.errors import InvalidParameterError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators import EdgeList, _require
from repro.graph.paths import bfs_parents
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    eccentricity_and_distances,
)
from repro.sentinels import unreached_mask
from repro.weighted.graph import WeightedGraph


def traced_peak_bytes(call: Callable[[], Any]) -> int:
    """Peak bytes ``call()`` allocates above its start, per tracemalloc.

    ``call`` runs once untraced first, so pooled or lazily built state
    exists before the measured run.
    """
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def bench_module(name: str) -> ModuleType:
    """``benchmarks/<name>.py``, imported by path (the benchmark scripts
    are not a package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """A random connected graph: random spanning tree + extra edges.

    The tree guarantees connectivity; the extra edges add cycles.  Used
    by unit tests and hypothesis strategies alike.
    """
    rng = np.random.default_rng(seed)
    edges = [(v, int(rng.integers(0, v))) for v in range(1, n)]
    for _ in range(extra_edges):
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n))
        if u != w:
            edges.append((u, w))
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges(edges)
    return builder.build()


def exact_eccentricities(graph: Graph) -> np.ndarray:
    """The |V|-BFS oracle: one single-source BFS per vertex (per component)."""
    return naive_eccentricities(graph, traversal="loop").eccentricities


def heap_dijkstra(graph, source: int):
    """Reference binary-heap Dijkstra with lazy deletion.

    Returns ``(dist, edges_scanned, vertices_visited)``: the distances
    (``inf`` = unreachable), the arcs of every settled vertex counted
    once, and the number of settled (reached) vertices.  A test-only
    oracle for :func:`repro.weighted.dijkstra.dijkstra_distances`, which
    must match it bit for bit.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    edges_scanned = visited = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        visited += 1
        for pos in range(indptr[u], indptr[u + 1]):
            edges_scanned += 1
            w = int(indices[pos])
            nd = d + float(weights[pos])
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist, edges_scanned, visited


# ----------------------------------------------------------------------
# Graph construction and inspection fixtures
# ----------------------------------------------------------------------
def graph_from_adjacency(adjacency: Sequence[Sequence[int]]) -> Graph:
    """A graph from an adjacency list; the input must be symmetric."""
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in adjacency])
    indices = np.asarray(
        [v for row in adjacency for v in sorted(row)], dtype=np.int32
    )
    graph = Graph(indptr, indices)
    graph.check_symmetric()
    return graph


def has_edge(graph: Graph, u: int, v: int) -> bool:
    """True when the undirected edge ``{u, v}`` is present."""
    graph._check_vertex(u)
    graph._check_vertex(v)
    return bool(np.isin(v, graph.neighbors(u)))


def unit_weighted(graph: Graph, weight: float = 1.0) -> WeightedGraph:
    """``graph`` as a weighted graph with every edge weighing ``weight``."""
    return WeightedGraph(
        graph.indptr.copy(),
        graph.indices.copy(),
        np.full(len(graph.indices), float(weight)),
    )


def out_neighbors(graph: DirectedGraph, v: int) -> np.ndarray:
    """Heads of ``v``'s out-arcs."""
    graph._check_vertex(v)
    csr = graph.out_csr
    return csr.indices[csr.indptr[v]: csr.indptr[v + 1]]


def in_neighbors(graph: DirectedGraph, v: int) -> np.ndarray:
    """Tails of ``v``'s in-arcs."""
    graph._check_vertex(v)
    csr = graph.in_csr
    return csr.indices[csr.indptr[v]: csr.indptr[v + 1]]


def is_connected(graph: Graph) -> bool:
    """True when the graph has one connected component (or no vertex)."""
    if graph.num_vertices <= 1:
        return True
    return bool(np.all(bfs_distances(graph, 0) != UNREACHED))


def all_pairs_distances(
    graph: Graph, counter: Optional[TraversalCounter] = None
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(v, distances-from-v)`` for every vertex (quadratic)."""
    for v in range(graph.num_vertices):
        yield v, bfs_distances(graph, v, counter=counter)


def shortest_path(
    graph: Graph,
    source: int,
    target: int,
    counter: Optional[TraversalCounter] = None,
) -> Optional[List[int]]:
    """One shortest path from ``source`` to ``target`` (``None`` if none),
    walked back along :func:`repro.graph.paths.bfs_parents`."""
    graph._check_vertex(target)
    dist, parent = bfs_parents(graph, source, counter=counter)
    if dist[target] == UNREACHED:
        return None
    path = [target]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


# ----------------------------------------------------------------------
# Generators the tests (and tests/data/golden_generators.json) pin
# ----------------------------------------------------------------------
def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) random graph (each pair an edge independently with prob p)."""
    _require(n >= 0, "n must be non-negative")
    _require(0.0 <= p <= 1.0, "p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_vertices=n)
    # Sample the upper triangle one row at a time to bound memory.
    for u in range(n - 1):
        count = n - 1 - u
        mask = rng.random(count) < p
        if mask.any():
            vs = np.arange(u + 1, n, dtype=np.int64)[mask]
            builder.add_edge_arrays(np.full(len(vs), u, dtype=np.int64), vs)
    return builder.build()


def core_periphery(
    core_size: int,
    periphery_size: int,
    core_probability: float = 0.3,
    seed: int = 0,
) -> Graph:
    """A dense Erdős–Rényi core with sparse periphery vertices, each
    hung off one random core vertex by a path of random length 1–3."""
    _require(core_size >= 2, "core_size must be >= 2")
    _require(periphery_size >= 0, "periphery_size must be >= 0")
    rng = np.random.default_rng(seed)
    # Dense core: one uniform double per pair, row by row.
    rows, cols = np.triu_indices(core_size, k=1)
    kept = rng.random(len(rows)) < core_probability
    # Spanning cycle keeps the core connected regardless of density
    # draw: its pairs are (u, u + 1) and (0, core_size - 1).
    kept |= (cols - rows == 1) | ((rows == 0) & (cols == core_size - 1))
    edges = EdgeList(core_size, rows[kept], cols[kept])
    anchors = np.empty(periphery_size, dtype=np.int64)
    lengths = np.empty(periphery_size, dtype=np.int64)
    for i in range(periphery_size):
        anchors[i] = rng.integers(0, core_size)
        lengths[i] = rng.integers(1, 4)
    edges.hang_paths(anchors, lengths)
    return edges.graph()


def attach_periphery(
    graph: Graph,
    num_tendrils: int,
    max_length: int,
    seed: int = 0,
    num_anchors: int = 4,
) -> Graph:
    """Graft tendrils onto the ``num_anchors`` lowest-degree vertices:
    anchor ``j``'s deepest tendril has length ``max_length - 3 j``, and
    ``seed`` only jitters the lengths by one."""
    _require(num_tendrils >= 0, "num_tendrils must be non-negative")
    _require(max_length >= 1, "max_length must be >= 1")
    _require(num_anchors >= 1, "num_anchors must be >= 1")
    rng = np.random.default_rng(seed)
    edges = EdgeList.of_graph(graph)
    anchors = np.argsort(edges.degrees, kind="stable")[:num_anchors]
    jitter = np.array(
        [rng.integers(0, 2) for _ in range(num_tendrils)], dtype=np.int64
    )
    i = np.arange(num_tendrils, dtype=np.int64)
    j = i % len(anchors)
    base = max_length - 3 * j - i // len(anchors)
    lengths = np.maximum(1, base - jitter)
    edges.hang_paths(anchors[j], lengths)
    return edges.graph()


# ----------------------------------------------------------------------
# Per-call references of the sequential generators
# ----------------------------------------------------------------------
# ``repro.graph.generators`` decodes its draws from bulk PCG64 words;
# these make the same draws one ``rng`` call at a time, in the same
# order.  ``rng`` is ``np.random.default_rng(seed)`` (or any object with
# its ``integers(0, high)`` and ``random()``), so each must build the
# generator's graph at that seed bit for bit.
def per_call_barabasi_albert(n: int, attach: int, rng) -> Graph:
    """``barabasi_albert(n, attach, seed)``, one ``rng`` call per draw."""
    urn: List[int] = []
    seed_size = attach + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            urn.extend((u, v))
    for v in range(seed_size, n):
        targets: set = set()
        while len(targets) < attach:
            targets.add(urn[rng.integers(0, len(urn))])
        for t in targets:
            urn.extend((v, t))
    ends = np.array(urn, dtype=np.int64)
    builder = GraphBuilder(num_vertices=n)
    builder.add_edge_arrays(ends[0::2], ends[1::2])
    return builder.build()


def per_call_watts_strogatz(n: int, k: int, beta: float, rng) -> Graph:
    """``watts_strogatz(n, k, beta, seed)``, one ``rng`` call per draw."""
    targets: List[int] = []
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < beta:
                w = int(rng.integers(0, n))
                attempts = 0
                while (w == u or w == v) and attempts < 8:
                    w = int(rng.integers(0, n))
                    attempts += 1
                v = w if w != u else v
            targets.append(v)
    builder = GraphBuilder(num_vertices=n)
    builder.add_edge_arrays(
        np.repeat(np.arange(n, dtype=np.int64), k // 2),
        np.array(targets, dtype=np.int64),
    )
    return builder.build()


def per_call_copying_model(
    n: int, out_degree: int, copy_probability: float, rng
) -> Graph:
    """``copying_model(n, out_degree, copy_probability, seed)``, one
    ``rng`` call per draw."""
    adjacency: List[List[int]] = [[] for _ in range(n)]
    seed_size = out_degree + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            adjacency[u].append(v)
            adjacency[v].append(u)
    for v in range(seed_size, n):
        proto_links = adjacency[int(rng.integers(0, v))]
        for _ in range(out_degree):
            if proto_links and rng.random() < copy_probability:
                target = proto_links[rng.integers(0, len(proto_links))]
            else:
                target = int(rng.integers(0, v))
            if target != v:
                adjacency[v].append(target)
                adjacency[target].append(v)
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges(
        (u, w) for u, links in enumerate(adjacency) for w in links
    )
    return builder.build()


# ----------------------------------------------------------------------
# Section 5 oracles: Theorems 5.5 and 5.6
# ----------------------------------------------------------------------
def exact_via_f1(
    graph: Graph,
    reference: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Exact ED by BFS from every node of ``F1`` (Theorem 5.5).

    For ``v`` in ``F1`` the eccentricity comes from ``v``'s own BFS; for
    ``v`` outside, ``ecc(v) = max_{u in F1} dist(u, v)`` — the theorem
    guarantees some farthest node of ``v`` lies in ``F1``.
    """
    counter = counter if counter is not None else TraversalCounter()
    strat = stratify(graph, reference, counter=counter)
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int32)
    f1 = strat.f1
    outside = np.ones(n, dtype=bool)
    outside[f1] = False
    for u in f1:
        ecc_u, dist_u = eccentricity_and_distances(
            graph, int(u), counter=counter
        )
        ecc[u] = ecc_u
        ecc[outside] = np.maximum(ecc[outside], dist_u[outside])
    # F1 is empty only when ecc(z) = 0 (a single vertex).
    if len(f1) == 0:
        ecc[:] = strat.eccentricity
    return EccentricityResult(
        eccentricities=ecc,
        lower=ecc.copy(),
        upper=ecc.copy(),
        exact=True,
        algorithm="F1-exact",
        num_bfs=counter.bfs_runs,
        elapsed_seconds=0.0,
        reference_nodes=np.asarray([strat.reference], dtype=np.int32),
        counter=counter,
    )


def approximate_via_f2(
    graph: Graph,
    reference: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Approximate ED by BFS from every node of ``F2`` (Theorem 5.6).

    Exact inside ``F2``; outside, ``max(dist_max(v, F2), dist(v, z) +
    ecc(z) / 4)`` rounded down, with a ratio in ``[7/12, 3/2]``.
    """
    counter = counter if counter is not None else TraversalCounter()
    strat = stratify(graph, reference, counter=counter)
    n = graph.num_vertices
    f2 = strat.f2
    in_f2 = np.zeros(n, dtype=bool)
    in_f2[f2] = True
    dist_max_f2 = np.zeros(n, dtype=np.int64)
    ecc_exact = np.zeros(n, dtype=np.int64)
    for u in f2:
        ecc_u, dist_u = eccentricity_and_distances(
            graph, int(u), counter=counter
        )
        ecc_exact[u] = ecc_u
        dist_max_f2 = np.maximum(dist_max_f2, dist_u)
    theorem_term = (
        strat.distances.astype(np.float64) + strat.eccentricity / 4.0
    )
    estimate = np.maximum(dist_max_f2.astype(np.float64), theorem_term)
    ecc = np.floor(estimate).astype(np.int32)
    ecc[in_f2] = ecc_exact[in_f2]
    if len(f2) == 0:
        ecc[:] = 0  # ecc(z) = 0: a single vertex
    return EccentricityResult(
        eccentricities=ecc,
        lower=np.where(in_f2, ecc, dist_max_f2.astype(np.int32)),
        upper=ecc.copy(),
        exact=False,
        algorithm="F2-approx",
        num_bfs=counter.bfs_runs,
        elapsed_seconds=0.0,
        reference_nodes=np.asarray([strat.reference], dtype=np.int32),
        counter=counter,
    )


# ----------------------------------------------------------------------
# Bound-update oracles: one rule at a time
# ----------------------------------------------------------------------
def apply_lower_only(state: BoundState, dist_to_t: np.ndarray) -> None:
    """Raise ``state``'s lower bounds to ``dist(v, t)`` (Section 3.1's
    update when ``ecc(t)`` is unknown), checked like a ``BoundState``
    writer: a raise leaves the bounds untouched."""
    reachable = ~unreached_mask(dist_to_t)
    new_lower = np.maximum(
        state.lower, np.where(reachable, dist_to_t.astype(state.dtype), 0)
    )
    if not np.all(new_lower <= state.upper + state.tolerance):
        raise InvalidParameterError("lower-only update produced lower > upper")
    # reprolint: disable=R2 (reference oracle for apply_sweep_block)
    state.lower = new_lower


def apply_lemma33_tail(
    state: BoundState,
    dist_to_z: np.ndarray,
    tail_radius: float,
    subset: Optional[np.ndarray] = None,
) -> None:
    """Cap ``state``'s upper bounds by the FFO tail (Lemma 3.3):
    ``upper = min(upper, max(lower, dist(v, z) + tail_radius))`` on
    ``subset`` (default: every vertex); a raise leaves the bounds
    untouched."""
    vertices = slice(None) if subset is None else subset
    lower = state.lower[vertices]
    cap = np.maximum(
        lower, dist_to_z[vertices].astype(state.dtype) + tail_radius
    )
    new_upper = np.minimum(state.upper[vertices], cap)
    if not np.all(lower <= new_upper + state.tolerance):
        raise InvalidParameterError("Lemma 3.3 update produced lower > upper")
    # reprolint: disable=R2 (reference oracle for apply_sweep_block)
    state.upper[vertices] = new_upper


def csr_bfs(csr: Any, source: int) -> np.ndarray:
    """Distances from ``source`` along ``csr``'s rows, by a plain deque."""
    dist = np.full(csr.num_vertices, UNREACHED, dtype=np.int32)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in csr.indices[csr.indptr[u]:csr.indptr[u + 1]].tolist():
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def lane_words(lanes: np.ndarray) -> np.ndarray:
    """The ``(n,)`` ``uint64`` words of a ``(k, n)`` boolean lane
    matrix: bit ``i`` of word ``v`` is ``lanes[i, v]``."""
    shifts = np.arange(len(lanes), dtype=np.uint64)[:, None]
    words = lanes.astype(np.uint64) << shifts
    return np.bitwise_or.reduce(words, axis=0, initial=np.uint64(0))


def watch_lane_levels(monkeypatch: Any) -> List[List[str]]:
    """Check the lane bitmaps of every :class:`MSBFSEngine` sweep, level
    by level, against each lane's deque BFS; returns the log of every
    sweep's level forms (``td``, ``dense``, ``thin``, or ``none`` for
    the level that found no new vertex).

    A bitmap word is *clean* when it holds no bit outside ``seen``.
    At level ``L`` of a sweep, ``seen`` holds exactly the lanes' bits
    at distance ``<= L``.  A top-down level is handed exactly the
    vertices at distance ``L`` and their words; a bottom-up level reads
    a ``frontier`` bitmap that equals the level-``L`` words at every
    vertex.  The bitmap a level writes (``next_mask`` top-down, ``spare``
    bottom-up) is clean on entry and on return, except that a dense
    pull returns the level-``L + 1`` words in it.  After every sweep,
    ``seen`` holds every lane's reach and both level bitmaps are clean.
    """
    from repro.graph.msengine import MSBFSEngine

    log: List[List[str]] = []
    state: dict = {}
    impl = MSBFSEngine._sweep_impl
    top_down = MSBFSEngine._top_down_level
    bottom_up = MSBFSEngine._bottom_up_level

    def at(distance: int) -> np.ndarray:
        return lane_words(state["dist"] == distance)

    def within(distance: int) -> np.ndarray:
        dist = state["dist"]
        return lane_words((dist >= 0) & (dist <= distance))

    def clean(words: np.ndarray, seen: np.ndarray) -> bool:
        return not (words & ~seen).any()

    def sweep(self: Any, src: np.ndarray, *args: Any) -> Any:
        state["dist"] = np.stack([csr_bfs(self._out, s) for s in src.tolist()])
        state["level"] = 0
        log.append([])
        out = impl(self, src, *args)
        work = args[-1]
        assert np.array_equal(work.seen, lane_words(state["dist"] >= 0))
        assert clean(work.frontier, work.seen)
        assert clean(work.next_mask, work.seen)
        return out

    def td(self: Any, active, words, counts, arcs, seen, next_mask):
        level = state["level"]
        frontier = at(level)
        assert np.array_equal(np.sort(active), np.flatnonzero(frontier))
        assert np.array_equal(words, frontier[active])
        assert np.array_equal(seen, within(level))
        assert clean(next_mask, seen)
        out = top_down(self, active, words, counts, arcs, seen, next_mask)
        assert clean(next_mask, seen)
        log[-1].append("none" if out is None else "td")
        state["level"] = level + 1
        return out

    def bu(self: Any, frontier, seen, live, spare, scratch):
        level = state["level"]
        assert np.array_equal(frontier, at(level))
        assert np.array_equal(seen, within(level))
        assert live == np.bitwise_or.reduce(frontier)
        assert clean(spare, seen)
        pulled, arcs = bottom_up(self, frontier, seen, live, spare, scratch)
        if isinstance(pulled, np.ndarray):
            fresh = at(level + 1)
            assert np.array_equal(spare, fresh)
            assert np.array_equal(pulled, fresh != 0)
            log[-1].append("dense")
        else:
            assert clean(spare, seen)
            log[-1].append("none" if pulled is None else "thin")
        state["level"] = level + 1
        return pulled, arcs

    monkeypatch.setattr(MSBFSEngine, "_sweep_impl", sweep)
    monkeypatch.setattr(MSBFSEngine, "_top_down_level", td)
    monkeypatch.setattr(MSBFSEngine, "_bottom_up_level", bu)
    return log
