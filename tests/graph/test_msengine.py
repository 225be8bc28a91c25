"""Unit tests for the direction-optimizing MS-BFS engine.

The engine's contract is the repo-wide one: lane packing and direction
choice change speed, never answers.  Every test therefore compares
against the single-source hybrid engine (itself pinned against the seed
kernel in test_engine.py) or the plain traversal reference.
"""

from __future__ import annotations


import numpy as np
import pytest

from helpers import random_connected_graph, traced_peak_bytes
from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph.builder import GraphBuilder
from repro.graph import batch_distance_rows, msengine
from repro.graph import engine as engine_module
from repro.graph.batch import ecc_batch
from repro.graph.engine import BFSEngine
from repro.directed.graph import DirectedGraph
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    paper_example_graph,
    star_graph,
)
from repro.graph.msengine import (
    LANE_WORD_BITS,
    MSBFSEngine,
    msengine_for,
    plan_lane_width,
)
from repro.obs.trace import MemorySink, tracing
from repro.parallel.pool import shutdown_pools
from repro.sentinels import UNREACHED


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(300, extra_edges=260, seed=11)


@pytest.fixture(scope="module")
def reference_rows(graph):
    engine = BFSEngine(graph)
    return np.stack(
        [engine.run(v).copy() for v in range(graph.num_vertices)]
    )


def _sources(graph, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(
        graph.num_vertices, size=count, replace=False
    ).astype(np.int64)


def _in_groups(sweep, src):
    """``sweep`` over ``src`` one 64-lane group at a time."""
    return [
        sweep(src[start: start + LANE_WORD_BITS])
        for start in range(0, len(src), LANE_WORD_BITS)
    ]


class TestRunBatch:
    @pytest.mark.parametrize("mode", ["hybrid", "top-down", "bottom-up"])
    def test_rows_match_single_source_engine(
        self, graph, reference_rows, mode
    ):
        src = _sources(graph, 64)
        rows = MSBFSEngine(graph).run_batch(src, mode=mode)
        assert rows.dtype == np.int32
        assert np.array_equal(rows, reference_rows[src])

    @pytest.mark.parametrize("count", [1, 7, 64, 65, 128, 129, 256])
    def test_every_lane_width(self, graph, reference_rows, count):
        # One sweep up to 64 sources; the batch seam sweeps more as
        # 64-lane groups.
        src = _sources(graph, count, seed=count)
        rows = batch_distance_rows(graph, src)
        assert np.array_equal(rows, reference_rows[src])
        if count <= LANE_WORD_BITS:
            rows = MSBFSEngine(graph).run_batch(src)
            assert np.array_equal(rows, reference_rows[src])

    def test_disconnected_vertices_stay_unreached(self):
        builder = GraphBuilder(num_vertices=6)
        # Second component 3-4; vertex 5 isolated.
        builder.add_edges([(0, 1), (1, 2), (3, 4)])
        graph = builder.build()
        rows = MSBFSEngine(graph).run_batch(np.arange(6))
        assert rows[0, 3] == UNREACHED and rows[0, 5] == UNREACHED
        assert rows[5, 5] == 0 and np.all(rows[5, :5] == UNREACHED)

    def test_empty_batch(self, graph):
        rows = MSBFSEngine(graph).run_batch(np.empty(0, dtype=np.int64))
        assert rows.shape == (0, graph.num_vertices)

    def test_counter_credits_k_runs_for_one_sweep(self, graph):
        src = _sources(graph, 40)
        counter = TraversalCounter()
        MSBFSEngine(graph).run_batch(src, counter=counter)
        assert counter.bfs_runs == 40


class TestEccBatch:
    @pytest.mark.parametrize("mode", ["hybrid", "top-down"])
    def test_matches_rows_reduction(self, graph, reference_rows, mode):
        src = _sources(graph, 130, seed=5)
        engine = MSBFSEngine(graph)
        ecc = np.concatenate(
            _in_groups(lambda g: engine.ecc_batch(g, mode=mode), src)
        )
        expected = reference_rows[src].max(axis=1).astype(np.int32)
        assert np.array_equal(ecc, expected)

    def test_paper_example(self):
        graph = paper_example_graph()
        ecc = MSBFSEngine(graph).ecc_batch(
            np.arange(graph.num_vertices)
        )
        loop = BFSEngine(graph)
        for v in range(graph.num_vertices):
            loop.run(v)
            assert ecc[v] == loop.last_ecc


@pytest.fixture(scope="module")
def chunked():
    """More arcs than one gather chunk: every full level splits."""
    graph = barabasi_albert(4096, 10, seed=3)
    assert len(graph.indices) > engine_module._GATHER_CHUNK_ARCS
    return graph


def _work(counter):
    return (
        counter.bfs_runs,
        counter.edges_scanned,
        counter.edges_inspected,
        counter.vertices_visited,
    )


def _traced_sweep(sweep):
    """Call ``sweep()`` under a tracer; return its ``msbfs.run`` event."""
    sink = MemorySink()
    with tracing(sink):
        sweep()
    (event,) = [e for e in sink.events if e["name"] == "msbfs.run"]
    return event


def _consumed_columns(engine, src, targets, counter, mode):
    """A column sweep whose pending lanes are all consumed as runs."""
    engine.column_batch(src, targets, counter=counter, mode=mode)
    assert counter.bfs_runs == 0  # credited as pending probe lanes
    counter.consume_lanes(len(src))


class TestColumnBatch:
    def test_counter_gets_one_pending_lane_per_source(self, graph):
        counter = TraversalCounter()
        MSBFSEngine(graph).column_batch([5, 17, 42], [1, 2], counter=counter)
        assert counter.bfs_runs == 0
        assert counter.vertices_visited > 0
        counter.consume_lanes(2)
        counter.discard_lanes()
        assert counter.history == ["bfs:5", "bfs:17"]
        assert (counter.bfs_runs, counter.lanes_discarded) == (2, 1)

    @pytest.mark.parametrize("mode", ["hybrid", "top-down", "bottom-up"])
    @pytest.mark.parametrize("count", [1, 8, 63, 64, 65, 200, 256])
    def test_columns_and_eccs_match_run_batch(
        self, graph, reference_rows, mode, count
    ):
        src = _sources(graph, count, seed=count)
        rng = np.random.default_rng(count)
        some = np.sort(rng.choice(graph.num_vertices, 37, replace=False))
        engine = MSBFSEngine(graph)
        ecc = np.concatenate(
            _in_groups(lambda g: engine.ecc_batch(g, mode=mode), src)
        )
        assert np.array_equal(ecc, reference_rows[src].max(axis=1))
        n = graph.num_vertices
        for targets in (
            [],
            [int(src[0])],
            [n - 1],
            some,
            np.union1d(some, src[:3]),
            np.arange(n),
        ):
            groups = _in_groups(
                lambda g: engine.column_batch(g, targets, mode=mode), src
            )
            for _eccs, cols in groups:
                assert cols.dtype == np.int32 and cols.flags.c_contiguous
            eccs = np.concatenate([e for e, _c in groups])
            cols = np.concatenate([c for _e, c in groups])
            assert cols.shape == (count, len(targets))
            assert np.array_equal(eccs, ecc)
            assert np.array_equal(
                cols, reference_rows[src][:, np.asarray(targets, dtype=int)]
            )

    def test_disconnected_columns_stay_unreached(self):
        builder = GraphBuilder(num_vertices=6)
        builder.add_edges([(0, 1), (1, 2), (3, 4)])
        graph = builder.build()
        eccs, cols = MSBFSEngine(graph).column_batch(
            np.arange(6), [2, 4, 5]
        )
        assert eccs.tolist() == [2, 1, 2, 1, 1, 0]
        assert cols[:, 2].tolist() == [UNREACHED] * 5 + [0]
        assert cols[0].tolist() == [2, UNREACHED, UNREACHED]

    @pytest.mark.parametrize("mode", ["hybrid", "top-down", "bottom-up"])
    def test_chunked_levels_match_the_serial_engine(self, chunked, mode):
        src = np.arange(0, 4096, 41)[:64]
        targets = np.arange(5, 4096, 97)
        rows = MSBFSEngine(chunked).run_batch(src, mode=mode)
        loop = BFSEngine(chunked)
        for i, s in enumerate(src):
            assert np.array_equal(rows[i], loop.run(int(s)))
        eccs, cols = MSBFSEngine(chunked).column_batch(src, targets, mode=mode)
        assert np.array_equal(cols, rows[:, targets])
        assert np.array_equal(eccs, rows.max(axis=1))

    @pytest.mark.parametrize("mode", ["hybrid", "top-down", "bottom-up"])
    def test_hub_slice_split_across_chunks(self, mode):
        # The hub's arcs alone span several chunks, in both directions.
        graph = star_graph(3 * engine_module._GATHER_CHUNK_ARCS)
        src = np.array([0, 1, 2, 5000, graph.num_vertices - 1])
        rows = MSBFSEngine(graph).run_batch(src, mode=mode)
        loop = BFSEngine(graph)
        for i, s in enumerate(src):
            assert np.array_equal(rows[i], loop.run(int(s)))

    @pytest.mark.parametrize(
        "mode, work",
        [
            ("hybrid", (64, 1831, 185913, 262144)),
            ("top-down", (64, 224355, 224355, 262144)),
            ("bottom-up", (64, 0, 265892, 262144)),
        ],
    )
    def test_counter_credits_are_pinned(self, chunked, mode, work):
        # The credits of the two-dimensional (n, words) bitmap sweep
        # these replaced, at one word; recording fewer columns, chunking
        # the gathers and one-dimensional bitmaps change none of them.
        # A column sweep's lanes count as runs once consumed.
        src = np.arange(0, 4096, 41)[:64]
        credited = []
        for call in (
            lambda c: MSBFSEngine(chunked).run_batch(src, counter=c, mode=mode),
            lambda c: MSBFSEngine(chunked).ecc_batch(src, counter=c, mode=mode),
            lambda c: _consumed_columns(
                MSBFSEngine(chunked), src, [3, 7], c, mode
            ),
        ):
            counter = TraversalCounter()
            call(counter)
            credited.append(_work(counter))
        assert credited == [work] * 3

    def test_visited_is_reached_cells(self, graph):
        src = _sources(graph, 64, seed=4)
        counter = TraversalCounter()
        rows = MSBFSEngine(graph).run_batch(src, counter=counter)
        assert counter.vertices_visited == np.count_nonzero(
            rows != UNREACHED
        )

    def test_empty_batch(self, graph):
        eccs, cols = MSBFSEngine(graph).column_batch([], [1, 2])
        assert eccs.shape == (0,) and cols.shape == (0, 2)

    def test_targets_validated(self, graph):
        engine = MSBFSEngine(graph)
        with pytest.raises(InvalidParameterError, match="increasing"):
            engine.column_batch([0], [5, 3])
        with pytest.raises(InvalidParameterError, match="increasing"):
            engine.column_batch([0], [3, 3])
        with pytest.raises(InvalidParameterError, match="dimensional"):
            engine.column_batch([0], [[1]])
        with pytest.raises(InvalidVertexError):
            engine.column_batch([0], [0, graph.num_vertices])
        with pytest.raises(InvalidVertexError):
            engine.column_batch([0], [-1, 2])


MODES = ("hybrid", "top-down", "bottom-up")

#: Distances at which a sweep gains a bit plane, and the ones before.
_PLANE_EDGES = (1, 2, 3, 4, 7, 8, 255, 256, 257, 511, 512, 513, 1023, 1024)


@pytest.fixture(scope="module")
def long_path():
    """A 1,100-vertex path (ids 0..1099), an edge 1100-1101 and an
    isolated vertex 1102: distances reach 1,099, past 2^8 and 2^9."""
    builder = GraphBuilder(num_vertices=1103)
    builder.add_edges((i, i + 1) for i in range(1099))
    builder.add_edges([(1100, 1101)])
    return builder.build()


def _looped_rows(graph, src, backward=False):
    engine = BFSEngine(graph, backward=backward)
    return np.stack([engine.run(int(s)).copy() for s in src])


def _edge_targets(sources, extra=()):
    """The vertices at every plane edge from each path source, the
    sources themselves and ``extra``, sorted and in range."""
    cand = {v for s in sources for d in _PLANE_EDGES for v in (s - d, s + d)}
    cand.update(sources)
    cand.update(extra)
    return np.array(sorted(v for v in cand if 0 <= v < 1100), dtype=np.int64)


class TestBitPlaneBoundaries:
    """Distances are recorded as bit planes; a plane is added at every
    power of two, so the level sweep is checked where the plane count
    changes (255 -> 256, 511 -> 512) against looped single-source
    runs."""

    #: Path sources: both ends, plane edges, the far component and the
    #: isolated vertex.
    SOURCES = np.array([0, 1, 256, 511, 600, 1099, 1100, 1102])

    @pytest.mark.parametrize("mode", MODES)
    def test_path_columns_cross_plane_edges(self, long_path, mode):
        src = self.SOURCES
        rows = _looped_rows(long_path, src)
        assert rows.max() == 1099
        edges = np.union1d(_edge_targets(src[:6]), [1100, 1101, 1102])
        engine = MSBFSEngine(long_path)
        assert np.array_equal(engine.run_batch(src, mode=mode), rows)
        n = long_path.num_vertices
        for targets in ([], [0], edges, np.arange(n)):
            eccs, cols = engine.column_batch(src, targets, mode=mode)
            assert cols.shape == (len(src), len(targets))
            assert cols.dtype == np.int32 and cols.flags.c_contiguous
            assert np.array_equal(cols, rows[:, np.asarray(targets, int)])
            assert np.array_equal(eccs, rows.max(axis=1))
        # Sources read 0 at their own column; the other components'
        # columns stay UNREACHED.
        _eccs, cols = engine.column_batch(src, edges, mode=mode)
        at = {int(v): j for j, v in enumerate(edges)}
        assert [cols[i, at[int(s)]] for i, s in enumerate(src)] == [0] * 8
        assert np.all(cols[:6, [at[1100], at[1101], at[1102]]] == UNREACHED)
        assert np.all(np.delete(cols[7], at[1102]) == UNREACHED)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("depth", [255, 256, 257, 511, 512, 1024])
    def test_sweep_ends_at_plane_edges(self, mode, depth):
        # A path of depth + 1 vertices, an edge and an isolated vertex:
        # the sweep's last level is `depth`, where a plane was just
        # added (or is about to be).
        builder = GraphBuilder(num_vertices=depth + 4)
        builder.add_edges((i, i + 1) for i in range(depth))
        builder.add_edges([(depth + 1, depth + 2)])
        graph = builder.build()
        src = np.array([0, 1, depth // 2, depth, depth + 1, depth + 3])
        rows = MSBFSEngine(graph).run_batch(src, mode=mode)
        assert np.array_equal(rows, _looped_rows(graph, src))
        assert rows.max() == depth

    @pytest.mark.parametrize("mode", MODES)
    def test_grid_columns_cross_plane_edges(self, mode):
        # Corner to corner is 2 + 599 = 601 steps.
        graph = grid_graph(3, 600)
        n = graph.num_vertices
        src = np.array([0, 1, 299, 599, 600, 1200, 1500, n - 1])
        rows = _looped_rows(graph, src)
        assert rows.max() == 601
        hits = np.isin(rows, _PLANE_EDGES).any(axis=0)
        targets = np.union1d(np.flatnonzero(hits), src)
        engine = MSBFSEngine(graph)
        assert np.array_equal(engine.run_batch(src, mode=mode), rows)
        for cols_of in (targets, np.arange(n)):
            eccs, cols = engine.column_batch(src, cols_of, mode=mode)
            assert np.array_equal(cols, rows[:, cols_of])
            assert np.array_equal(eccs, rows.max(axis=1))

    @pytest.mark.parametrize("mode", MODES)
    def test_directed_backward_path(self, mode):
        # Arcs i -> i+1: a backward sweep from s reads dist(v, s) = s - v
        # for v <= s and nothing past s.
        graph = DirectedGraph.from_arcs(
            ((i, i + 1) for i in range(1099)), num_vertices=1100
        )
        src = np.array([0, 255, 256, 511, 512, 700, 1099])
        rows = _looped_rows(graph, src, backward=True)
        assert rows[-1, 0] == 1099 and rows[0, 1] == UNREACHED
        engine = MSBFSEngine(graph, backward=True)
        assert np.array_equal(engine.run_batch(src, mode=mode), rows)
        targets = _edge_targets(src)
        eccs, cols = engine.column_batch(src, targets, mode=mode)
        assert np.array_equal(cols, rows[:, targets])
        assert np.array_equal(eccs, rows.max(axis=1))


class TestScratchBound:
    """A lane sweep's scratch is bounded by the gather chunk, not by
    ``n * k`` or by the graph's arcs; this is what lets graphs of any
    size batch their FFO probes."""

    def test_column_sweep_peak_independent_of_lanes_and_arcs(self):
        graph = barabasi_albert(8192, 32, seed=2)
        n = graph.num_vertices
        assert len(graph.indices) >= 1 << 18
        rng = np.random.default_rng(0)
        targets = np.sort(rng.choice(n, 256, replace=False))
        engine = MSBFSEngine(graph)
        # One chunk's arc scratch is at most six 8-byte arrays (gather
        # positions and their offsets, endpoints, repeated lane words,
        # the reduction), plus a few length-n level arrays.
        bound = 48 * engine_module._GATHER_CHUNK_ARCS + 32 * n
        peaks = {}
        for lanes in (8, 64):
            src = rng.choice(n, lanes, replace=False)
            for mode in ("hybrid", "top-down", "bottom-up"):
                peaks[lanes, mode] = traced_peak_bytes(
                    lambda: engine.column_batch(src, targets, mode=mode)
                )
        assert max(peaks.values()) < bound, peaks
        for mode in ("hybrid", "top-down", "bottom-up"):
            assert peaks[64, mode] - peaks[8, mode] < 1 << 20, peaks


class TestValidation:
    def test_too_many_sources(self, graph):
        limit = LANE_WORD_BITS
        assert limit == 64
        engine = MSBFSEngine(graph)
        for sweep in (
            engine.run_batch,
            engine.ecc_batch,
            lambda src: engine.column_batch(src, [0]),
        ):
            with pytest.raises(InvalidParameterError, match=str(limit)):
                sweep(np.arange(limit + 1, dtype=np.int64))

    def test_bad_mode(self, graph):
        with pytest.raises(InvalidParameterError, match="mode"):
            MSBFSEngine(graph).run_batch([0], mode="sideways")

    def test_bad_vertex(self, graph):
        with pytest.raises(InvalidVertexError):
            MSBFSEngine(graph).run_batch([0, graph.num_vertices])
        with pytest.raises(InvalidVertexError):
            MSBFSEngine(graph).run_batch([-1])


class TestPlanner:
    def test_small_batches_stay_serial(self):
        assert plan_lane_width(400_000, 1) == 0
        assert plan_lane_width(400_000, 7) == 0

    def test_edgeless_graphs_stay_serial(self):
        assert plan_lane_width(0, 64) == 0

    def test_single_word_default(self):
        assert plan_lane_width(4_000, 8) == 64
        assert plan_lane_width(4_000, 64) == 64
        assert plan_lane_width(4_000, 256) == 64

    def test_wide_batches_sweep_one_word(self):
        # No batch or graph is big enough for a wider sweep: a larger
        # batch is swept as 64-lane groups.
        for m in (8_192, 16_384, 200_000, 10**8):
            for batch in (65, 128, 255, 256, 512, 10**6):
                assert plan_lane_width(m, batch) == LANE_WORD_BITS
        widths = {
            plan_lane_width(m, batch)
            for m in (0, 1, 7, 400, 16_384, 4 * 10**6)
            for batch in (0, 1, 7, 8, 64, 65, 256, 4_096)
        }
        assert widths == {0, LANE_WORD_BITS}


class TestStatsAndObservability:
    def test_lane_retirement_on_star(self):
        # On a star every leaf lane saturates at level 2 but the sweep
        # runs while any lane lives; live_lanes must never grow.
        graph = star_graph(500)
        engine = MSBFSEngine(graph)
        run = _traced_sweep(
            lambda: engine.ecc_batch(np.arange(64, dtype=np.int64))
        )
        assert run["num_sources"] == 64
        assert run["lane_words"] == 1
        assert run["levels"] == len(run["directions"])
        live = run["live_lanes"]
        assert all(a >= b for a, b in zip(live, live[1:]))
        assert live[0] <= 64

    def test_hybrid_switches_direction_on_dense_graph(self, graph):
        engine = MSBFSEngine(graph)
        run = _traced_sweep(lambda: engine.ecc_batch(_sources(graph, 64)))
        assert "bu" in run["directions"]
        assert run["edges_inspected"] >= run["edges_scanned"]

    def test_run_event_and_metrics(self, graph):
        # 65 sources sweep as two one-word groups of 64 and 1.
        sink = MemorySink()
        with tracing(sink) as tracer:
            ecc_batch(graph, _sources(graph, 65))
            snapshot = tracer.metrics.snapshot()
        events = [
            e for e in sink.events if e.get("name") == "msbfs.run"
        ]
        assert [e["num_sources"] for e in events] == [64, 1]
        for event in events:
            assert event["lane_words"] == 1
            assert event["mode"] == "hybrid"
            assert event["levels"] == len(event["directions"])
        assert snapshot["msbfs.runs"]["value"] == 2
        assert snapshot["msbfs.sources"]["value"] == 65
        assert snapshot["msbfs.words_touched"]["value"] > 0


class TestBatchDistanceRows:
    def test_duplicates_share_one_sweep(self, graph, reference_rows):
        src = np.asarray([5, 17, 5, 42, 17, 5], dtype=np.int64)
        counter = TraversalCounter()
        rows = batch_distance_rows(graph, src, counter=counter)
        assert np.array_equal(rows, reference_rows[src])
        # Six requested rows, three distinct traversals credited as six
        # (duplicates replay a computed lane, still one run each).
        assert counter.bfs_runs == 6

    def test_serial_fallback_below_lane_threshold(
        self, graph, reference_rows
    ):
        src = np.asarray([3, 250], dtype=np.int64)
        rows = batch_distance_rows(graph, src)
        assert np.array_equal(rows, reference_rows[src])


@pytest.fixture(scope="module")
def wide():
    """Enough vertices for a 512-source batch of distinct sources."""
    graph = random_connected_graph(700, extra_edges=900, seed=5)
    yield graph
    shutdown_pools()


def _totals(counter):
    return (
        counter.bfs_runs,
        counter.edges_scanned,
        counter.edges_inspected,
        counter.vertices_visited,
    )


class TestLaneGroups:
    """A batch of more than 64 sources is swept as 64-lane groups, and
    equals the looped single-source hybrid engine bit for bit."""

    @pytest.mark.parametrize("count", [65, 128, 200, 512])
    def test_groups_equal_the_looped_engine(self, wide, count):
        src = _sources(wide, count, seed=count)
        loop = BFSEngine(wide)
        loop_counter = TraversalCounter()
        want = np.stack(
            [loop.run(int(s), counter=loop_counter).copy() for s in src]
        )
        counters = {}
        for backend in ("numpy", "process"):
            counter = TraversalCounter()
            eccs = ecc_batch(
                wide, src, counter=counter, backend=backend, workers=2
            )
            assert eccs.dtype == np.int32
            assert np.array_equal(eccs, want.max(axis=1))
            counters[backend] = _totals(counter)
        assert counters["numpy"] == counters["process"]
        counter = TraversalCounter()
        rows = batch_distance_rows(wide, src, counter=counter)
        assert np.array_equal(rows, want)
        assert _totals(counter) == counters["numpy"]
        # Runs and reached cells match the loop; arc work is the lanes'.
        assert counters["numpy"][0] == loop_counter.bfs_runs == count
        assert counters["numpy"][3] == loop_counter.vertices_visited

    def test_one_sweep_event_per_group(self, wide):
        sink = MemorySink()
        with tracing(sink):
            ecc_batch(wide, _sources(wide, 512))
        events = [e for e in sink.events if e["name"] == "msbfs.run"]
        assert [e["num_sources"] for e in events] == [64] * 8
        assert {e["lane_words"] for e in events} == {1}


class TestEngineCache:
    def test_msengine_for_is_cached_per_graph(self, graph):
        assert msengine_for(graph) is msengine_for(graph)
        other = random_connected_graph(10, extra_edges=2, seed=1)
        assert msengine_for(other) is not msengine_for(graph)
