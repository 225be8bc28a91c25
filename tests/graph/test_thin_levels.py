"""Thin levels and gather-chunk boundaries of both BFS kernels.

A top-down level that fits one gather chunk runs fused (one arc
gather, a slot-write dedupe, no ``O(n)`` pass); more arcs run chunk by
chunk.  Patching ``_GATHER_CHUNK_ARCS`` down to 1, 7 and 64 arcs pushes
small graphs through every chunk boundary: one-arc chunks, slices cut
at both ends and levels that only just fit.  Every run must equal a
deque BFS and the unpatched run bit for bit: distances,
eccentricities, counter totals and the ``bfs.run``/``msbfs.run``
payloads.  The lane engine's bitmaps are checked at every level
(:func:`helpers.watch_lane_levels`): the bitmap a level writes holds no
bit outside ``seen`` on entry and on return, whichever form ran, a
bottom-up level reads the exact frontier words, and after every sweep,
however it ended, both level bitmaps hold no bit outside ``seen``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from helpers import watch_lane_levels
from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.graph import engine, msengine
from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.msengine import MSBFSEngine
from repro.obs.trace import MemorySink, tracing
from repro.sentinels import UNREACHED

MODES = ("hybrid", "top-down", "bottom-up")
CHUNKS = (1, 7, 64)
#: Event fields that vary run to run (sequence, time, nesting).
_CLOCK_FIELDS = ("kind", "seq", "t", "parent")


def caterpillar(spine, legs, leg_len):
    """A spine path with a pendant path of ``leg_len`` vertices hung on
    each of ``legs`` evenly spaced spine vertices: long thin levels."""
    builder = GraphBuilder()
    builder.add_edges((i, i + 1) for i in range(spine - 1))
    nxt = spine
    for hook in np.linspace(0, spine - 1, legs).astype(int).tolist():
        prev = hook
        for _ in range(leg_len):
            builder.add_edge_arrays(np.array([prev]), np.array([nxt]))
            prev, nxt = nxt, nxt + 1
    return builder.build()


def broken_digraph():
    """Not strongly connected: a directed cycle feeding a one-way
    path, a tail that only reaches into the cycle, and a sink star."""
    arcs = [(i, (i + 1) % 12) for i in range(12)]
    arcs += [(11, 12)] + [(i, i + 1) for i in range(12, 30)]
    arcs += [(40, 41), (41, 3)] + [(29, j) for j in range(31, 40)]
    return DirectedGraph.from_arcs(arcs, num_vertices=42)


GRAPHS = {
    "path": lambda: path_graph(90),
    "caterpillar": lambda: caterpillar(20, 5, 25),
    "grid": lambda: grid_graph(9, 13),
    "star": lambda: star_graph(150),
    "ba": lambda: barabasi_albert(300, 3, seed=4),
    "digraph": broken_digraph,
}


def deque_bfs(graph, source, backward=False):
    """Distances from ``source`` (to it, ``backward``) by a plain deque."""
    csr = graph.in_csr if backward else graph.out_csr
    dist = np.full(graph.num_vertices, UNREACHED, dtype=np.int32)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        lo, hi = csr.indptr[u], csr.indptr[u + 1]
        for v in csr.indices[lo:hi].tolist():
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.fixture
def clean_scratch(monkeypatch):
    """Check the lane bitmaps at every level of every sweep; the log
    of each sweep's level forms (see :func:`helpers.watch_lane_levels`)."""
    return watch_lane_levels(monkeypatch)


def _assert_clean(work):
    """Neither level bitmap holds a bit outside ``seen``."""
    assert not ((work.frontier | work.next_mask) & ~work.seen).any()


def _payload(event):
    return {k: v for k, v in event.items() if k not in _CLOCK_FIELDS}


def _patch_chunk(monkeypatch, arcs):
    """Shrink the gather chunk of both kernels built from now on (each
    reads it when it is constructed, the dense pull's plan too)."""
    monkeypatch.setattr(engine, "_GATHER_CHUNK_ARCS", arcs)


def _sources(graph):
    n = graph.num_vertices
    return np.unique(np.array([0, 1, n // 3, n // 2, n - 2, n - 1]))


def single_runs(graph, backward):
    """Per source and mode: distances, ecc, counter totals, payload."""
    eng = BFSEngine(graph, backward=backward)
    out = []
    for source in _sources(graph).tolist():
        for mode in MODES:
            counter = TraversalCounter()
            sink = MemorySink()
            with tracing(sink):
                dist = eng.run(source, counter=counter, mode=mode).copy()
            (event,) = sink.events
            out.append(
                (dist, eng.last_ecc, counter.totals(), _payload(event))
            )
    return out


def lane_sweeps(graph, backward):
    """Every lane consumer in every mode: answers, counters, payloads;
    checks the level bitmaps are clean after each sweep."""
    eng = MSBFSEngine(graph, backward=backward)
    src = _sources(graph)
    targets = np.arange(0, graph.num_vertices, 5)
    out = []
    for mode in MODES:
        counters = [TraversalCounter() for _ in range(3)]
        sink = MemorySink()
        with tracing(sink):
            rows = eng.run_batch(src, counter=counters[0], mode=mode)
            _assert_clean(eng._work)
            eccs = eng.ecc_batch(src, counter=counters[1], mode=mode)
            _assert_clean(eng._work)
            col_eccs, cols = eng.column_batch(
                src, targets, counter=counters[2], mode=mode
            )
            _assert_clean(eng._work)
        counters[2].consume_lanes(len(src))
        out.append(
            (
                rows,
                eccs,
                col_eccs,
                cols,
                [c.totals() for c in counters],
                [_payload(e) for e in sink.events],
            )
        )
    return out


def _assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@pytest.fixture(params=sorted(GRAPHS))
def case(request):
    graph = GRAPHS[request.param]()
    directed = request.param == "digraph"
    return graph, (False, True) if directed else (False,)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_single_source_chunks(monkeypatch, case, chunk):
    graph, directions = case
    for backward in directions:
        expected = single_runs(graph, backward)
        want = {
            s: deque_bfs(graph, s, backward)
            for s in _sources(graph).tolist()
        }
        with monkeypatch.context() as patch:
            _patch_chunk(patch, chunk)
            got = single_runs(graph, backward)
        _assert_same(got, expected)
        for (dist, ecc, _totals, event), source in zip(
            got, np.repeat(_sources(graph), len(MODES)).tolist()
        ):
            assert np.array_equal(dist, want[source])
            assert ecc == int(want[source].max())
            assert event["source"] == source


@pytest.mark.parametrize("chunk", CHUNKS)
def test_lane_chunks(monkeypatch, clean_scratch, case, chunk):
    graph, directions = case
    for backward in directions:
        expected = lane_sweeps(graph, backward)
        want = np.stack(
            [deque_bfs(graph, s, backward) for s in _sources(graph).tolist()]
        )
        targets = np.arange(0, graph.num_vertices, 5)
        with monkeypatch.context() as patch:
            _patch_chunk(patch, chunk)
            got = lane_sweeps(graph, backward)
        _assert_same(got, expected)
        for rows, eccs, col_eccs, cols, _totals, _events in got:
            assert np.array_equal(rows, want)
            assert np.array_equal(eccs, want.max(axis=1))
            assert np.array_equal(col_eccs, eccs)
            assert np.array_equal(cols, want[:, targets])


@pytest.mark.parametrize("share", [msengine._DENSE_PULL_SHARE, 0.0, 2.0])
@pytest.mark.parametrize("mode", MODES)
def test_next_mask_zero_when_lanes_saturate(
    monkeypatch, clean_scratch, share, mode
):
    # Two cliques joined by one edge: every lane saturates at once, so
    # the sweep's last level expands arcs (or probes candidates) and
    # finds nothing new, in whichever form it runs.  The level bitmaps
    # are left clean (no bit outside seen); the next sweep zeroes them.
    builder = GraphBuilder()
    for base in (0, 6):
        builder.add_edges(
            (base + i, base + j) for i in range(6) for j in range(i + 1, 6)
        )
    builder.add_edges([(5, 6)])
    graph = builder.build()
    monkeypatch.setattr(msengine, "_DENSE_PULL_SHARE", share)
    eng = MSBFSEngine(graph)
    src = np.arange(12)
    sink = MemorySink()
    with tracing(sink):
        eccs = eng.ecc_batch(src, mode=mode)
    _assert_clean(eng._work)
    want = np.stack([deque_bfs(graph, s) for s in src.tolist()])
    assert np.array_equal(eccs, want.max(axis=1))
    (event,) = sink.events
    assert event["levels"] == int(want.max())
    # The last level found nothing: one more than the levels recorded.
    (forms,) = clean_scratch
    assert len(forms) == event["levels"] + 1
    assert forms[-1] == "none"
    assert np.array_equal(eng.run_batch(src, mode=mode), want)
    _assert_clean(eng._work)
