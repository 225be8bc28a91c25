"""TraversalPool dispatch, equivalence, lifecycle, and leak-freedom."""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest

from repro.counters import TraversalCounter
from repro.errors import (
    InvalidParameterError,
    InvalidVertexError,
    ParallelBackendError,
)
from repro.graph.engine import engine_for
from repro.graph.generators import barabasi_albert
from repro.graph.msengine import batch_distance_rows
from repro.obs.trace import deterministic_view, tracing, MemorySink
from repro.parallel.pool import (
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)
from repro.parallel.shm import shared_memory_available

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 3, seed=21)


def _all(graph):
    return np.arange(graph.num_vertices, dtype=np.int64)


@pytest.fixture(scope="module")
def pool(graph):
    pool = TraversalPool(graph, workers=2)
    yield pool
    pool.close()


class TestEquivalence:
    def test_eccentricities_match_engine(self, graph, pool):
        want = engine_for(graph).ecc_batch(
            np.arange(graph.num_vertices, dtype=np.int64)
        )
        got = pool.ecc_batch(_all(graph))
        assert np.array_equal(got, want)
        assert got.dtype == np.int32

    def test_subset_sources_preserve_order(self, graph, pool):
        sources = np.asarray([17, 3, 250, 3, 0], dtype=np.int64)
        engine = engine_for(graph)
        want = engine.ecc_batch(sources)
        assert np.array_equal(pool.ecc_batch(sources), want)

    def test_distance_rows_match_engine(self, graph, pool):
        sources = [5, 99, 0]
        engine = engine_for(graph)
        want = np.stack(
            [engine.run(s).copy() for s in sources]
        )
        assert np.array_equal(pool.distance_rows(sources), want)

    def test_msbfs_rows_match_inprocess(self, graph, pool):
        # 150 sources plan lane sweeps on both sides.
        sources = np.arange(150, dtype=np.int64)
        want = batch_distance_rows(graph, sources)
        assert np.array_equal(pool.distance_rows(sources), want)

    def test_msbfs_eccentricities_match_inprocess(self, graph, pool):
        want = engine_for(graph).ecc_batch(_all(graph))
        assert np.array_equal(pool.ecc_batch(_all(graph)), want)

    def test_counter_totals_match_serial(self, graph, pool):
        serial = TraversalCounter()
        engine_for(graph).ecc_batch(
            np.arange(graph.num_vertices, dtype=np.int64), counter=serial
        )
        merged = TraversalCounter()
        pool.ecc_batch(_all(graph), counter=merged)
        assert merged.bfs_runs == serial.bfs_runs
        assert merged.edges_scanned == serial.edges_scanned
        assert merged.edges_inspected == serial.edges_inspected

    def test_empty_sources(self, pool):
        assert pool.ecc_batch([]).shape == (0,)
        assert pool.distance_rows([]).shape == (0, pool.num_vertices)


class TestValidation:
    def test_invalid_vertex_raises_in_parent(self, pool):
        with pytest.raises(InvalidVertexError):
            pool.ecc_batch([0, pool.num_vertices])

    def test_unknown_kind_propagates_worker_error(self, pool):
        with pytest.raises(ParallelBackendError, match="bogus"):
            pool._run("bogus", np.arange(3, dtype=np.int64), (), 0, None)

    def test_pool_survives_worker_error(self, graph, pool):
        # After a failed dispatch the workers are still serving.
        with pytest.raises(ParallelBackendError):
            pool._run("bogus", np.arange(3, dtype=np.int64), (), 0, None)
        want = engine_for(graph).ecc_batch(np.asarray([1, 2], dtype=np.int64))
        assert np.array_equal(pool.ecc_batch([1, 2]), want)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(InvalidParameterError):
            resolve_workers(0)


class TestObservability:
    def test_batch_span_emitted(self, graph, pool):
        sink = MemorySink()
        with tracing(sink):
            pool.ecc_batch([0, 1, 2, 3, 4])
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

    def test_worker_seconds_stripped_from_deterministic_view(
        self, graph, pool
    ):
        sink = MemorySink()
        with tracing(sink):
            pool.ecc_batch([0, 1])
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
            pool.ecc_batch([0])

    def test_no_leaked_segments_or_workers_after_gc(self, graph):
        from multiprocessing import shared_memory

        pool = TraversalPool(graph, workers=2)
        pool.ecc_batch([0, 1, 2])  # materialise the out segment too
        resources = pool._resources
        graph_segment = resources.graph_share.name
        out_segment = resources.out_segment.name
        pids = [proc.pid for proc in resources.processes]
        del pool, resources
        gc.collect()
        for name in (graph_segment, out_segment):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(_pid_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_pid_alive(pid) for pid in pids)

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
            assert pool.ecc_batch([0]).shape == (1,)
        assert pool.closed


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
