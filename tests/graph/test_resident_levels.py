"""Bitmap-resident dense lane levels and the switches between level forms.

A dense bottom-up level of :class:`~repro.graph.msengine.MSBFSEngine`
leaves its fresh words in a bitmap that becomes the next level's
frontier; vertex lists come back only at a top-down level (one scan of
that bitmap) or a thin gather pull.  Here each bottom-up level's form
is scripted by its place in a run of bottom-up levels, so one sweep
runs dense levels back to back and switches dense -> thin -> top-down
-> dense (and the other way round), at the committed share, 0 and 2 and
at gather chunks of 1, 7 and 64 arcs.  The graphs hold isolated
vertices, and directed sources with no in-arcs, forward and backward.

Every lane consumer must equal a deque BFS and looped
:meth:`BFSEngine.run`, with the counter credits and ``msbfs.run``
payloads of the unpatched sweep, and the lane bitmaps are checked at
every level (:func:`helpers.watch_lane_levels`).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import csr_bfs, watch_lane_levels
from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.graph import engine, msengine
from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine
from repro.graph.generators import barabasi_albert
from repro.graph.msengine import MSBFSEngine
from repro.obs.trace import MemorySink, tracing

#: Event fields that vary run to run (sequence, time, nesting).
_CLOCK_FIELDS = ("kind", "seq", "t", "parent")

COMMITTED = msengine._DENSE_PULL_SHARE

#: The share each bottom-up level runs at, by its place ``p`` in its
#: run of bottom-up levels (share 0: dense, share 2: thin).
SCRIPTS = {
    "committed": lambda p: COMMITTED,
    "dense": lambda p: 0.0,
    "thin": lambda p: 2.0,
    "dense-then-thin": lambda p: 0.0 if p == 0 else 2.0,
    "thin-then-dense": lambda p: 2.0 if p == 0 else 0.0,
}


def two_blobs():
    """Two BA blobs joined by a 20-vertex path: a hybrid sweep from the
    first blob runs bottom-up there, top-down along the path and
    bottom-up again in the second blob."""
    first = barabasi_albert(150, 3, seed=3)
    second = barabasi_albert(300, 3, seed=4)
    builder = GraphBuilder()
    csr = first.out_csr
    builder.add_edge_arrays(csr.arc_sources(), csr.indices)
    offset = 170
    csr = second.out_csr
    builder.add_edge_arrays(csr.arc_sources() + offset, csr.indices + offset)
    chain = [0, *range(150, offset), offset]
    builder.add_edges(zip(chain[:-1], chain[1:]))
    return builder.build()


def isolated():
    """A BA graph spread over a larger id range: 60 scattered ids have
    no arcs at all."""
    base = barabasi_albert(200, 3, seed=5)
    ids = np.sort(np.random.default_rng(1).choice(260, 200, replace=False))
    csr = base.out_csr
    builder = GraphBuilder(num_vertices=260)
    builder.add_edge_arrays(ids[csr.arc_sources()], ids[csr.indices])
    return builder.build()


def zero_in_digraph():
    """Random arcs into [30, 300) only: ids below 30 have no in-arcs
    (forward) and ids from 280 on no out-arcs (no in-arcs backward)."""
    rng = np.random.default_rng(7)
    tails = rng.integers(0, 280, 1500)
    heads = rng.integers(30, 300, 1500)
    return DirectedGraph.from_arcs(zip(tails.tolist(), heads.tolist()), 300)


#: Graph, directions to sweep, sources.
GRAPHS = {
    "two-blobs": (two_blobs, (False,), [1, 16, 33, 50, 67, 84, 101, 118]),
    "isolated": (isolated, (False,), None),
    "zero-in": (
        zero_in_digraph,
        (False, True),
        [0, 5, 29, 30, 150, 279, 280, 299],
    ),
}


def _sources(name, graph):
    src = GRAPHS[name][2]
    if src is not None:
        return np.array(src)
    # Every 30th vertex with arcs, plus three isolated ones.
    arcs = graph.out_csr.degrees > 0
    return np.sort(
        np.concatenate(
            [np.flatnonzero(arcs)[::30], np.flatnonzero(~arcs)[:3]]
        )
    )


def _script(patch, log, share_at):
    """Set ``_DENSE_PULL_SHARE`` before each bottom-up level by its
    place in its run of bottom-up levels (read off ``log``)."""
    level = MSBFSEngine._bottom_up_level

    def scripted(self, *args):
        place = 0
        for form in reversed(log[-1]):
            if form not in ("dense", "thin"):
                break
            place += 1
        patch.setattr(msengine, "_DENSE_PULL_SHARE", share_at(place))
        return level(self, *args)

    patch.setattr(MSBFSEngine, "_bottom_up_level", scripted)


def _payload(event):
    return {k: v for k, v in event.items() if k not in _CLOCK_FIELDS}


def _consumers(graph, backward, src, targets, mode):
    """Rows, eccs, columns, counter credits and payloads of every lane
    consumer."""
    eng = MSBFSEngine(graph, backward=backward)
    counters = [TraversalCounter() for _ in range(3)]
    sink = MemorySink()
    with tracing(sink):
        rows = eng.run_batch(src, counter=counters[0], mode=mode)
        eccs = eng.ecc_batch(src, counter=counters[1], mode=mode)
        col_eccs, cols = eng.column_batch(
            src, targets, counter=counters[2], mode=mode
        )
    counters[2].consume_lanes(len(src))
    credits = [(c.totals(), list(c.history)) for c in counters]
    return rows, eccs, col_eccs, cols, credits, [
        _payload(e) for e in sink.events
    ]


def _sweep_checked(monkeypatch, name, backward, script, chunk, mode):
    """Run every consumer under the script and chunk, check answers
    and credits; returns the level-form log."""
    graph = GRAPHS[name][0]()
    src = _sources(name, graph)
    targets = np.arange(0, graph.num_vertices, 7)
    in_order = graph.in_csr if backward else graph.out_csr
    want = np.stack([csr_bfs(in_order, s) for s in src.tolist()])
    loop = BFSEngine(graph, backward=backward)
    looped = np.stack([loop.run(s).copy() for s in src.tolist()])
    assert np.array_equal(looped, want)
    reference = _consumers(graph, backward, src, targets, mode)
    with monkeypatch.context() as patch:
        if chunk is not None:
            patch.setattr(engine, "_GATHER_CHUNK_ARCS", chunk)
        log = watch_lane_levels(patch)
        _script(patch, log, SCRIPTS[script])
        rows, eccs, col_eccs, cols, credits, payloads = _consumers(
            graph, backward, src, targets, mode
        )
    assert np.array_equal(rows, want)
    assert np.array_equal(eccs, want.max(axis=1))
    assert np.array_equal(col_eccs, eccs)
    assert np.array_equal(cols, want[:, targets])
    assert credits == reference[4]
    assert payloads == reference[5]
    return log


@pytest.mark.parametrize("chunk", [None, 7, 64])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("mode", ["hybrid", "bottom-up"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_forms_match_deque_bfs(monkeypatch, name, mode, script, chunk):
    # One-arc chunks run in the two tests below.
    for backward in GRAPHS[name][1]:
        log = _sweep_checked(
            monkeypatch, name, backward, script, chunk, mode
        )
        forms = {form for sweep in log for form in sweep}
        if script in ("dense", "thin"):
            assert forms - {"td", "none"} == {script}
        if mode == "bottom-up":
            assert "td" not in forms


def _pairs(log):
    return {pair for sweep in log for pair in zip(sweep, sweep[1:])}


@pytest.mark.parametrize("chunk", [None, 1, 7, 64])
@pytest.mark.parametrize(
    "script, switches",
    [
        ("dense", {("td", "dense"), ("dense", "dense"), ("dense", "td")}),
        (
            "dense-then-thin",
            {
                ("td", "dense"),
                ("dense", "thin"),
                ("thin", "thin"),
                ("thin", "td"),
            },
        ),
        (
            "thin-then-dense",
            {
                ("td", "thin"),
                ("thin", "dense"),
                ("dense", "dense"),
                ("dense", "td"),
            },
        ),
    ],
)
def test_one_sweep_switches_forms(monkeypatch, script, switches, chunk):
    # Hybrid sweeps on the two blobs run t t B B B t ... t B B B: two
    # runs of three bottom-up levels around a top-down stretch.
    log = _sweep_checked(
        monkeypatch, "two-blobs", False, script, chunk, "hybrid"
    )
    assert switches <= _pairs(log)
    for sweep in log:
        # Both runs of bottom-up levels, in one sweep.
        runs = "".join("B" if f in ("dense", "thin") else "t" for f in sweep)
        assert runs.count("tB") == 2


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_consecutive_dense_levels(monkeypatch, name, chunk):
    # Forced bottom-up at share 0: every level is dense, back to back.
    for backward in GRAPHS[name][1]:
        log = _sweep_checked(
            monkeypatch, name, backward, "dense", chunk, "bottom-up"
        )
        for sweep in log:
            assert sweep[:-1] == ["dense"] * (len(sweep) - 1)
            assert len(sweep) >= 3
