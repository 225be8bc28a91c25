"""TraversalPool dispatch, equivalence, lifecycle, and leak-freedom."""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import weakref

import numpy as np
import pytest

from repro.counters import TraversalCounter
from repro.errors import (
    InvalidParameterError,
    InvalidVertexError,
    ParallelBackendError,
)
from repro.graph.batch import ecc_batch
from repro.graph.engine import engine_for
from repro.graph.generators import barabasi_albert
from repro.obs.trace import deterministic_view, tracing, MemorySink
from repro.parallel import pool as pool_mod
from repro.parallel.pool import (
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 3, seed=21)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


def _all(graph):
    return np.arange(graph.num_vertices, dtype=np.int64)


def _pooled(graph, sources, counter=None):
    return ecc_batch(graph, sources, counter, backend="process", workers=2)


class TestEquivalence:
    def test_eccentricities_match_engine(self, graph):
        engine = engine_for(graph)
        want = []
        for v in range(graph.num_vertices):
            engine.run(v)
            want.append(engine.last_ecc)
        got = _pooled(graph, _all(graph))
        assert got.tolist() == want
        assert got.dtype == np.int32

    def test_subset_sources_preserve_order(self, graph):
        sources = np.asarray([17, 3, 250, 3, 0], dtype=np.int64)
        want = ecc_batch(graph, sources)
        assert np.array_equal(_pooled(graph, sources), want)

    def test_msbfs_eccentricities_match_inprocess(self, graph):
        want = ecc_batch(graph, _all(graph))
        assert np.array_equal(_pooled(graph, _all(graph)), want)

    def test_counter_totals_match_serial(self, graph):
        serial = TraversalCounter()
        ecc_batch(graph, _all(graph), counter=serial)
        merged = TraversalCounter()
        _pooled(graph, _all(graph), counter=merged)
        assert merged.bfs_runs == serial.bfs_runs
        assert merged.edges_scanned == serial.edges_scanned
        assert merged.edges_inspected == serial.edges_inspected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("count", [3, 7, 70])
    def test_counter_history_matches_in_process(self, graph, workers, count):
        # 3 and 7 sources loop the single-source engine, one history
        # label per source and several tasks per worker; 70 sweep lanes.
        sources = np.random.default_rng(count).choice(
            graph.num_vertices, count, replace=False
        )
        local = TraversalCounter()
        want = ecc_batch(graph, sources, counter=local)
        pooled = TraversalCounter()
        got = ecc_batch(
            graph, sources, pooled, backend="process", workers=workers
        )
        assert np.array_equal(got, want)
        assert pooled.totals() == local.totals()
        assert pooled.history == local.history
        if count < 8:
            assert local.history == [f"bfs:{s}" for s in sources]

    def test_empty_sources(self, graph):
        assert _pooled(graph, []).shape == (0,)


class TestValidation:
    def test_invalid_vertex_raises_in_parent(self, graph):
        with pytest.raises(InvalidVertexError):
            _pooled(graph, [0, graph.num_vertices])

    def test_worker_error_propagates(self, graph):
        # dispatch takes a planned batch, so the parent does not
        # validate it: the worker's loop is the one to fail, and its
        # traceback rides on the error.
        pool = pool_for(graph, workers=2)
        with pytest.raises(
            ParallelBackendError, match=r"worker \d+: InvalidVertexError"
        ):
            pool.dispatch(_out_of_range(graph), 0)

    def test_pool_survives_worker_error(self, graph):
        # After a failed dispatch the workers are still serving.
        pool = pool_for(graph, workers=2)
        with pytest.raises(ParallelBackendError):
            pool.dispatch(_out_of_range(graph), 0)
        want = ecc_batch(graph, [1, 2])
        assert np.array_equal(_pooled(graph, [1, 2]), want)
        assert pool_for(graph, workers=2) is pool

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(InvalidParameterError):
            resolve_workers(0)


class TestObservability:
    def test_batch_span_emitted(self, graph):
        sink = MemorySink()
        with tracing(sink):
            _pooled(graph, [0, 1, 2, 3, 4])
        spans = [
            e for e in sink.events if e.get("name") == "parallel.batch"
        ]
        assert len(spans) == 1
        span = spans[0]
        assert span["kind"] == "ecc"
        assert span["backend"] == "process"
        assert span["workers"] == 2
        assert span["num_sources"] == 5
        assert sum(span["chunks"]) == 5
        assert span["tasks"] == len(span["chunks"])
        assert span["traversals"] == 5
        assert isinstance(span["worker_seconds"], dict)

    def test_wide_batch_feeds_every_worker(self):
        # A 512-source batch chunks as 64-lane groups, so four workers
        # get at least one task each instead of two 256-lane chunks.
        wide = barabasi_albert(4096, 2, seed=4)
        sources = np.arange(512, dtype=np.int64)
        sink = MemorySink()
        try:
            with tracing(sink):
                got = ecc_batch(wide, sources, backend="process", workers=4)
        finally:
            pool_for(wide, 4).close()
        assert np.array_equal(got, ecc_batch(wide, sources))
        (span,) = [
            e for e in sink.events if e.get("name") == "parallel.batch"
        ]
        assert span["workers"] == 4
        assert span["tasks"] >= 4
        assert all(size % 64 == 0 for size in span["chunks"])
        assert sum(span["chunks"]) == 512

    def test_worker_seconds_stripped_from_deterministic_view(self, graph):
        sink = MemorySink()
        with tracing(sink):
            _pooled(graph, [0, 1])
        view = deterministic_view(sink.events)
        for event in view:
            assert "worker_seconds" not in event
            assert "dur" not in event


class TestLifecycle:
    def test_close_is_idempotent(self, graph):
        pool = TraversalPool(graph, workers=1)
        pool.close()
        pool.close()
        assert pool.closed

    def test_dispatch_after_close_raises(self, graph):
        pool = TraversalPool(graph, workers=1)
        pool.close()
        with pytest.raises(ParallelBackendError, match="closed"):
            pool.dispatch(_all(graph)[:1], 0)

    def test_no_leaked_workers_after_gc(self, graph):
        pool = TraversalPool(graph, workers=2)
        pool.dispatch(_all(graph)[:3], 0)
        pids = [proc.pid for proc in pool._resources.processes]
        del pool
        gc.collect()
        _assert_reaped(pids)

    def test_dropped_graph_closes_its_pool(self):
        # The graph reaches the workers as a Process argument; once the
        # workers have started, nothing in the parent holds it, so the
        # weak registry lets go of it and its pool with it.
        graph = barabasi_albert(200, 3, seed=4)
        pool = pool_for(graph, workers=2)
        _pooled(graph, [0, 1, 2])
        pids = [proc.pid for proc in pool._resources.processes]
        graph_ref, pool_ref = weakref.ref(graph), weakref.ref(pool)
        del graph, pool
        gc.collect()
        assert graph_ref() is None
        assert pool_ref() is None
        _assert_reaped(pids)

    def test_pool_for_caches_per_graph(self, graph):
        first = pool_for(graph, workers=1)
        try:
            assert pool_for(graph) is first
            assert pool_for(graph, workers=1) is first
            replaced = pool_for(graph, workers=2)
            assert replaced is not first
            assert first.closed
        finally:
            shutdown_pools()

    def test_shutdown_pools_closes_registry(self, graph):
        pool = pool_for(graph, workers=1)
        shutdown_pools()
        assert pool.closed

    def test_context_manager(self, graph):
        with TraversalPool(graph, workers=1) as pool:
            assert pool.dispatch(_all(graph)[:1], 0).shape == (1,)
        assert pool.closed


class TestSpawn:
    def test_spawned_workers_match_in_process(self, graph, monkeypatch):
        # The one path where the graph is pickled rather than inherited.
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(pool_mod, "_mp_context", lambda: spawn)
        sources = _all(graph)
        serial = TraversalCounter()
        want = ecc_batch(graph, sources, counter=serial)
        pooled = TraversalCounter()
        shutdown_pools()
        try:
            processes = list(pool_for(graph, workers=2)._resources.processes)
            got = _pooled(graph, sources, counter=pooled)
        finally:
            shutdown_pools()
        assert {type(proc).__name__ for proc in processes} == {
            "SpawnProcess"
        }
        assert np.array_equal(got, want)
        assert _totals(pooled) == _totals(serial)


def _out_of_range(graph):
    return np.asarray([graph.num_vertices + 5], dtype=np.int64)


def _totals(counter):
    return (
        counter.bfs_runs,
        counter.edges_scanned,
        counter.edges_inspected,
        counter.vertices_visited,
        counter.relaxations,
    )


def _assert_reaped(pids):
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not any(_pid_alive(pid) for pid in pids):
            break
        time.sleep(0.05)
    assert not any(_pid_alive(pid) for pid in pids)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    # Reap a zombie child if the pool's join missed it.
    try:
        done, _status = os.waitpid(pid, os.WNOHANG)
        return done == 0
    except ChildProcessError:
        return True
