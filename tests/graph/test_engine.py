"""Property-based equivalence suite for the direction-optimizing engine.

The engine must change *speed only, never answers*: hybrid (and both
forced directions) must agree bit-for-bit with the seed level-synchronous
kernel on every graph, under depth truncation, and across pooled-buffer
reuse.  The seed kernel is reproduced verbatim here as the oracle.
"""

import gc
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifecc import compute_eccentricities
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph.batch import ecc_batch
from repro.graph.csr import Graph
from repro.graph import engine as engine_module
from repro.graph.engine import BFSEngine, engine_for
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    paper_example_graph,
    path_graph,
    star_graph,
)
from repro.graph.msengine import msengine_for
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    bfs_distances,
    multi_source_bfs,
)
from repro.obs.trace import MemorySink, tracing

from helpers import random_connected_graph, traced_peak_bytes

MODES = ("hybrid", "top-down", "bottom-up")


def traced_run(engine, source, **kwargs):
    """Run ``engine`` once under a tracer; return its ``bfs.run`` event."""
    sink = MemorySink()
    with tracing(sink):
        engine.run(source, **kwargs)
    (event,) = [e for e in sink.events if e["name"] == "bfs.run"]
    return event


# ----------------------------------------------------------------------
# Seed-kernel oracles (faithful copies of the pre-engine implementations)
# ----------------------------------------------------------------------
def seed_bfs_distances(graph, source):
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(graph.num_vertices, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        csum = np.cumsum(counts)
        offsets = np.repeat(starts - (csum - counts), counts)
        neighbors = indices[np.arange(total, dtype=np.int64) + offsets]
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        level += 1
        dist[fresh] = level
        frontier = np.unique(fresh).astype(np.int64)
    return dist


def deque_nearest_source(graph, sources):
    """Nearest-source distances by a plain FIFO BFS seeded with every
    source (the test oracle for ``multi_source_bfs``)."""
    dist = np.full(graph.num_vertices, UNREACHED, dtype=np.int32)
    queue = deque()
    for s in sources:
        if dist[s] == UNREACHED:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def random_graph(n, num_edges, seed):
    """Random graph, possibly disconnected (no spanning tree guarantee)."""
    rng = np.random.default_rng(seed)
    edges = [
        (int(rng.integers(0, n)), int(rng.integers(0, n)))
        for _ in range(num_edges)
    ]
    edges = [(u, v) for u, v in edges if u != v]
    return Graph.from_edges(edges, num_vertices=n)


def graph_corpus():
    """~50 graphs: random (connected and disconnected), star, path,
    single-vertex, and the structured generator families."""
    graphs = [
        Graph.from_edges([], num_vertices=1),  # single vertex
        Graph.from_edges([], num_vertices=7),  # only isolated vertices
        path_graph(1),
        path_graph(2),
        path_graph(60),
        star_graph(2),
        star_graph(100),
        paper_example_graph(),
        barabasi_albert(300, 3, seed=11),
    ]
    for seed in range(20):
        n = 5 + seed * 3
        graphs.append(random_graph(n, n + seed, seed))  # often disconnected
    for seed in range(20):
        n = 4 + seed * 4
        graphs.append(random_connected_graph(n, 2 * seed, seed))
    return graphs


CORPUS = graph_corpus()


class TestHybridEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_corpus_matches_seed_kernel(self, mode):
        for i, graph in enumerate(CORPUS):
            engine = BFSEngine(graph)
            n = graph.num_vertices
            for source in range(0, n, max(1, n // 5)):
                expected = seed_bfs_distances(graph, source)
                got = engine.run(source, mode=mode)
                assert np.array_equal(expected, got), (
                    f"graph #{i} (n={n}), source {source}, mode {mode}"
                )

    def test_buffer_reuse_matches_fresh_engine(self):
        graph = barabasi_albert(400, 3, seed=5)
        shared = BFSEngine(graph)
        for source in (0, 7, 123, 7, 399):
            fresh = BFSEngine(graph).run(source).copy()
            again = shared.run(source)
            assert np.array_equal(fresh, again)
            # Back-to-back runs on one engine are self-consistent too.
            assert np.array_equal(again.copy(), shared.run(source))

    def test_wrapper_copies_out_of_pool(self):
        graph = path_graph(30)
        first = bfs_distances(graph, 0)
        second = bfs_distances(graph, 29)
        # If the wrapper leaked the pooled buffer these would alias.
        assert first[0] == 0 and second[29] == 0
        assert not np.shares_memory(first, second)

    def test_ecc_tracking(self):
        graph = paper_example_graph()
        engine = BFSEngine(graph)
        for source in range(graph.num_vertices):
            dist = engine.run(source)
            assert engine.last_ecc == int(dist.max())

    def test_stats_record_directions_and_edges(self):
        graph = star_graph(2000)
        engine = BFSEngine(graph)
        run = traced_run(engine, 3)  # leaf: level 2 is the dense one
        assert run["levels"] == 2
        assert "bu" in run["directions"]
        assert run["edges_inspected"] >= run["edges_scanned"]
        assert run["frontier_sizes"] == [1, 1998]

    def test_counter_inspected_accounting(self):
        graph = star_graph(500)
        counter = TraversalCounter()
        bfs_distances(graph, 1, counter=counter)
        assert counter.bfs_runs == 1
        assert counter.edges_inspected >= counter.edges_scanned
        merged = TraversalCounter()
        merged.merge(counter)
        assert merged.edges_inspected == counter.edges_inspected

    def test_invalid_inputs(self):
        graph = path_graph(4)
        engine = BFSEngine(graph)
        with pytest.raises(InvalidVertexError):
            engine.run(4)
        with pytest.raises(InvalidVertexError):
            engine.run(-1)
        with pytest.raises(InvalidParameterError):
            engine.run(0, mode="sideways")

    def test_engine_cache_is_per_graph(self):
        g1 = path_graph(5)
        g2 = path_graph(5)
        assert engine_for(g1) is engine_for(g1)
        assert engine_for(g1) is not engine_for(g2)


class TestRunStatsInvariants:
    """A ``bfs.run`` record must be internally consistent on every level mix.

    ``edges_inspected`` counts the top-down arcs *plus* whatever the
    bottom-up levels probed, so it can never fall below
    ``edges_scanned``; and the per-level audit lists must agree on how
    many levels the run had.
    """

    @pytest.mark.parametrize("mode", MODES)
    def test_inspected_dominates_scanned(self, mode):
        for i, graph in enumerate(CORPUS):
            engine = BFSEngine(graph)
            n = graph.num_vertices
            for source in range(0, n, max(1, n // 4)):
                run = traced_run(engine, source, mode=mode)
                assert run["edges_inspected"] >= run["edges_scanned"], (
                    f"graph #{i} (n={n}), source {source}, mode {mode}"
                )
                assert run["edges_scanned"] >= 0

    @pytest.mark.parametrize("mode", MODES)
    def test_per_level_lists_agree(self, mode):
        for i, graph in enumerate(CORPUS):
            engine = BFSEngine(graph)
            run = traced_run(engine, 0, mode=mode)
            assert len(run["directions"]) == len(run["frontier_sizes"]), (
                f"graph #{i}, mode {mode}"
            )
            assert len(run["directions"]) == run["levels"]
            assert all(d in ("td", "bu") for d in run["directions"])
            assert all(f > 0 for f in run["frontier_sizes"])
            assert run["visited"] == 1 + sum(run["frontier_sizes"])

    def test_forced_modes_are_pure(self):
        graph = star_graph(1000)
        engine = BFSEngine(graph)
        run = traced_run(engine, 0, mode="top-down")
        assert set(run["directions"]) <= {"td"}
        # a pure top-down run inspects exactly what it scans
        assert run["edges_inspected"] == run["edges_scanned"]
        run = traced_run(engine, 0, mode="bottom-up")
        assert set(run["directions"]) <= {"bu"}


#: Nearest-source cases: (graph, sources), covering deep and shallow
#: graphs, a disconnected one, and empty and duplicate source lists.
NEAREST_SOURCE_CASES = {
    "grid": (lambda: grid_graph(12, 17), [0, 100, 203]),
    "powerlaw": (lambda: barabasi_albert(3000, 4, seed=3), [5, 77, 2999]),
    "star": (lambda: star_graph(40), [3, 9]),
    "disconnected": (
        lambda: Graph.from_edges([(0, 1), (1, 2), (3, 4), (6, 7)], 9),
        [1, 6],
    ),
    "empty-sources": (lambda: grid_graph(4, 4), []),
    "duplicate-sources": (
        lambda: barabasi_albert(500, 3, seed=1),
        [7, 7, 300, 7, 300],
    ),
}


class TestMultiSourceEquivalence:
    def test_corpus_matches_seed_kernel(self):
        rng = np.random.default_rng(99)
        for i, graph in enumerate(CORPUS):
            n = graph.num_vertices
            k = int(rng.integers(1, min(n, 6) + 1))
            sources = [int(rng.integers(0, n)) for _ in range(k)]
            sources += sources[:1]  # exercise duplicate sources
            exp_dist = deque_nearest_source(graph, sources)
            got_dist = multi_source_bfs(graph, sources)
            assert np.array_equal(exp_dist, got_dist), f"graph #{i}"

    @pytest.mark.parametrize("case", sorted(NEAREST_SOURCE_CASES))
    @pytest.mark.parametrize("mode", ["hybrid", "top-down", "bottom-up"])
    def test_matches_deque_oracle(self, case, mode):
        make, sources = NEAREST_SOURCE_CASES[case]
        graph = make()
        counter = TraversalCounter()
        got = engine_for(graph).run(sources, counter=counter, mode=mode)
        assert np.array_equal(got, deque_nearest_source(graph, sources))
        # One unlabelled run, whatever the number of sources.
        assert (counter.bfs_runs, counter.history) == (1, [])
        assert np.array_equal(
            multi_source_bfs(graph, sources),
            deque_nearest_source(graph, sources),
        )

    def test_empty_sources(self):
        graph = path_graph(5)
        dist = multi_source_bfs(graph, [])
        assert (dist == UNREACHED).all()

    def test_invalid_source_vectorised_check(self):
        graph = path_graph(5)
        with pytest.raises(InvalidVertexError):
            multi_source_bfs(graph, [0, 5])
        with pytest.raises(InvalidVertexError):
            multi_source_bfs(graph, [-1])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    num_edges=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(MODES),
    data=st.data(),
)
def test_property_engine_equals_seed(n, num_edges, seed, mode, data):
    """Hypothesis: any random (possibly disconnected) graph, any source,
    any mode."""
    graph = random_graph(n, num_edges, seed)
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    engine = engine_for(graph)
    expected = seed_bfs_distances(graph, source)
    got = engine.run(source, mode=mode)
    assert np.array_equal(expected, got)


def _touch_engine(graph):
    engine_for(graph).run(0)


def _touch_engine_batch(graph):
    # 64 sources plan one lane sweep: the planner and both engines.
    ecc_batch(graph, np.arange(64))


def _touch_msengine(graph):
    msengine_for(graph).ecc_batch(np.arange(5))


def _touch_solver(graph):
    compute_eccentricities(graph)


@pytest.mark.parametrize(
    "touch",
    [_touch_engine, _touch_engine_batch, _touch_msengine, _touch_solver],
    ids=["engine_for", "ecc_batch", "msengine_for", "compute_eccentricities"],
)
def test_engine_caches_do_not_pin_graphs(touch):
    """The per-graph engine caches are weak: once its last user drops
    the graph, the graph (and with it the pooled engines) is freed."""
    graph = barabasi_albert(200, 2, seed=1)
    touch(graph)
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None



class TestScratchBound:
    """A run's scratch is bounded by the gather chunk plus a few
    length-n arrays, not by the arcs of its widest level."""

    @pytest.mark.parametrize("mode", MODES)
    def test_run_peak_independent_of_arcs(self, mode):
        graph = barabasi_albert(8192, 32, seed=2)
        n = graph.num_vertices
        assert len(graph.indices) >= 1 << 18
        engine = BFSEngine(graph)
        # One chunk's arc scratch is at most six 8-byte arrays
        # (positions and their offsets, endpoints, gathered values,
        # candidates), plus a few length-n level arrays.
        bound = 48 * engine_module._GATHER_CHUNK_ARCS + 32 * n
        peak = traced_peak_bytes(lambda: engine.run(0, mode=mode))
        assert peak < bound, peak
