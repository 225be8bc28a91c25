"""The two forms of a bottom-up lane level against looped single-source runs.

A bottom-up level of :class:`~repro.graph.msengine.MSBFSEngine` either
gathers its candidates' in-arcs by position (``_gather_pull``) or,
when the candidates hold at least ``_DENSE_PULL_SHARE`` of the in-arcs,
reads the whole in-CSR in contiguous chunks (``_dense_pull``) and
leaves the fresh words in a bitmap, the next level's frontier.  Each
graph here runs every sweep three ways: with the committed share, with
every bottom-up level dense (share 0) and with none (share 2).  All
three must equal looped :meth:`BFSEngine.run` bit for bit and credit
the counter identically; spies on both forms show which ones ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.graph import engine as engine_module
from repro.graph import msengine
from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine
from repro.graph.generators import barabasi_albert, star_graph
from repro.graph.msengine import MSBFSEngine

CHUNK = engine_module._GATHER_CHUNK_ARCS

#: The committed share, every bottom-up level dense, none dense.
SHARES = (msengine._DENSE_PULL_SHARE, 0.0, 2.0)


@pytest.fixture
def pulls(monkeypatch):
    """Log every bottom-up level as ``(form, candidate arcs, graph arcs)``;
    ``form`` is the pull method that ran (``None``: no candidate)."""
    log = []
    ran = []
    for name in ("_dense_pull", "_gather_pull"):
        form = getattr(MSBFSEngine, name)

        def spy(self, *args, _form=form, _name=name):
            ran.append(_name)
            return _form(self, *args)

        monkeypatch.setattr(MSBFSEngine, name, spy)
    level = MSBFSEngine._bottom_up_level

    def logged(self, *args):
        ran.clear()
        out = level(self, *args)
        (form,) = ran or [None]
        log.append((form, out[1], self.num_arcs))
        return out

    monkeypatch.setattr(MSBFSEngine, "_bottom_up_level", logged)
    return log


def _work(counter):
    return counter.totals(), list(counter.history)


def _sweeps(graph, src, targets, mode, backward=False):
    """Rows, eccentricities, columns and counter credits of every lane
    consumer over ``src`` (at most 64 sources)."""
    engine = MSBFSEngine(graph, backward=backward)
    counters = [TraversalCounter() for _ in range(3)]
    rows = engine.run_batch(src, counter=counters[0], mode=mode)
    eccs = engine.ecc_batch(src, counter=counters[1], mode=mode)
    col_eccs, cols = engine.column_batch(
        src, targets, counter=counters[2], mode=mode
    )
    counters[2].consume_lanes(len(src))
    return rows, eccs, col_eccs, cols, [_work(c) for c in counters]


def _check_forms(monkeypatch, pulls, graph, src, targets, mode, backward=False):
    """Every share gives the looped engine's answers and one set of
    credits; returns the forms each share ran, by share."""
    loop = BFSEngine(graph, backward=backward)
    expected = np.stack([loop.run(int(s)).copy() for s in src])
    credits = None
    forms = {}
    for share in SHARES:
        monkeypatch.setattr(msengine, "_DENSE_PULL_SHARE", share)
        pulls.clear()
        rows, eccs, col_eccs, cols, work = _sweeps(
            graph, src, targets, mode, backward
        )
        assert np.array_equal(rows, expected)
        assert np.array_equal(eccs, expected.max(axis=1))
        assert np.array_equal(col_eccs, eccs)
        assert np.array_equal(cols, expected[:, targets])
        credits = work if credits is None else credits
        assert work == credits
        forms[share] = {form for form, _arcs, _m in pulls if form}
        for form, arcs, m in pulls:
            if form is not None:
                dense = arcs >= share * m
                assert form == ("_dense_pull" if dense else "_gather_pull")
    assert forms[0.0] == {"_dense_pull"}
    assert forms[2.0] == {"_gather_pull"}
    return forms


class TestBothFormsMatchLoopedRuns:
    @pytest.mark.parametrize("mode", ["hybrid", "bottom-up"])
    def test_star_hub_spans_several_chunks(self, monkeypatch, pulls, mode):
        graph = star_graph(3 * CHUNK)
        n = graph.num_vertices
        assert graph.out_csr.degrees[0] > 2 * CHUNK
        src = np.array([0, 1, 2, 5000, n - 1])
        targets = np.array([0, 1, 3, CHUNK, 2 * CHUNK + 1, n - 1])
        forms = _check_forms(monkeypatch, pulls, graph, src, targets, mode)
        if mode == "bottom-up":
            assert forms[SHARES[0]] == {"_dense_pull"}

    def test_star_candidates_exactly_at_the_share(self, monkeypatch, pulls):
        # Forced bottom-up from leaves: the second level's candidates are
        # the leaves, one in-arc each, so exactly half the arcs.
        graph = star_graph(3 * CHUNK)
        src = np.array([1, 2, 3])
        _check_forms(monkeypatch, pulls, graph, src, [0, 4], "bottom-up")
        monkeypatch.setattr(msengine, "_DENSE_PULL_SHARE", SHARES[0])
        pulls.clear()
        MSBFSEngine(graph).ecc_batch(src, mode="bottom-up")
        leaves = graph.num_vertices - 1
        assert ("_dense_pull", leaves, 2 * leaves) in pulls

    @pytest.mark.parametrize("mode", ["hybrid", "bottom-up"])
    def test_isolated_vertices(self, monkeypatch, pulls, mode):
        # A BA graph spread over a larger id range: a quarter of the ids,
        # scattered, have no arcs at all; some sources are isolated.
        base = barabasi_albert(3000, 12, seed=5)
        n = 4000
        ids = np.sort(np.random.default_rng(1).choice(n, 3000, replace=False))
        csr = base.out_csr
        builder = GraphBuilder(num_vertices=n)
        builder.add_edges(
            zip(ids[csr.arc_sources()].tolist(), ids[csr.indices].tolist())
        )
        graph = builder.build()
        assert graph.out_csr.num_arcs > CHUNK
        isolated = np.setdiff1d(np.arange(n), ids)
        src = np.concatenate([ids[::60], isolated[:4]])
        targets = np.sort(np.concatenate([ids[::97], isolated[:3]]))
        forms = _check_forms(monkeypatch, pulls, graph, src, targets, mode)
        assert forms[SHARES[0]] == {"_dense_pull", "_gather_pull"}

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("mode", ["hybrid", "bottom-up"])
    def test_directed_zero_in_degree(self, monkeypatch, pulls, mode, backward):
        # Random arcs into [200, 5000) only: ids below 200 have no in-arcs
        # (the forward lanes' sources only), and ids at or above 4800 no
        # out-arcs (the backward lanes' in-CSR is the out-CSR).
        rng = np.random.default_rng(7)
        n = 5000
        tails = rng.integers(0, 4800, 90_000)
        heads = rng.integers(200, n, 90_000)
        graph = DirectedGraph.from_arcs(zip(tails.tolist(), heads.tolist()), n)
        in_csr = graph.out_csr if backward else graph.in_csr
        assert np.count_nonzero(in_csr.degrees == 0) >= 200
        assert graph.out_csr.num_arcs > CHUNK
        src = np.array([0, 5, 199, 200, 1000, 4799, 4800, 4999])
        targets = np.array([0, 3, 199, 200, 2500, 4800, 4999])
        _check_forms(
            monkeypatch, pulls, graph, src, targets, mode, backward=backward
        )


class TestLevelState:
    """One bottom-up level from a crafted state, both forms."""

    @staticmethod
    def _level(engine, frontier, seen):
        """``(newly, new_bits, seen_rows, arcs)`` of one level, in the
        list form whichever form ran."""
        live = np.bitwise_or.reduce(frontier)
        spare = np.zeros(len(seen), dtype=np.uint64)
        scratch = np.empty(len(seen), dtype=np.uint64)
        pulled, arcs = engine._bottom_up_level(
            frontier, seen, live, spare, scratch
        )
        if isinstance(pulled, np.ndarray):
            # Dense: the fresh words stay in `spare`, flagged by `pulled`.
            assert np.array_equal(pulled, spare != 0)
            newly = np.flatnonzero(pulled)
            pulled = newly, spare[newly], seen[newly]
        return (*pulled, arcs)

    @pytest.mark.parametrize(
        "unseen, form", [(1000, "_dense_pull"), (999, "_gather_pull")]
    )
    def test_share_boundary_on_a_star(self, pulls, unseen, form):
        # The hub holds lane 0; candidates are the leaves still missing
        # it, one in-arc each, against 2 * 1000 arcs.
        graph = star_graph(1001)
        engine = MSBFSEngine(graph)
        frontier = np.zeros(1001, dtype=np.uint64)
        frontier[0] = 1
        seen = np.zeros(1001, dtype=np.uint64)
        seen[0] = 1
        seen[unseen + 1:] = 1
        newly, bits, seen_rows, arcs = self._level(engine, frontier, seen)
        assert pulls == [(form, unseen, 2000)]
        assert newly.tolist() == list(range(1, unseen + 1))
        assert bits.tolist() == [1] * unseen
        assert seen_rows.tolist() == [0] * unseen
        assert arcs == unseen

    def test_random_states_agree(self, monkeypatch, pulls):
        # About 90k arcs, so both forms cross chunk boundaries.
        graph = barabasi_albert(3000, 15, seed=2)
        assert graph.out_csr.num_arcs > CHUNK
        n = graph.num_vertices
        engine = MSBFSEngine(graph)
        rng = np.random.default_rng(0)
        for trial in range(12):
            words = rng.integers(0, 1 << 63, n, dtype=np.uint64)
            frontier = words * (rng.random(n) < 0.1)
            seen = frontier | (
                rng.integers(0, 1 << 63, n, dtype=np.uint64)
                * (rng.random(n) < trial / 12)
            )
            results = []
            for share in (0.0, 2.0):
                monkeypatch.setattr(msengine, "_DENSE_PULL_SHARE", share)
                results.append(self._level(engine, frontier, seen.copy()))
            dense, gather = results
            assert dense[3] == gather[3]
            for a, b in zip(dense[:3], gather[:3]):
                assert np.array_equal(a, b)
        forms = {form for form, _arcs, _m in pulls}
        assert forms == {"_dense_pull", "_gather_pull"}
