"""Persistent per-graph worker pool for batched traversal dispatch.

This is the engine room of the ``backend="process"`` batch backend
(:mod:`repro.graph.batch`): a :class:`TraversalPool` owns ``W``
long-lived worker processes that each attach the shared-memory CSR
published by :mod:`repro.parallel.shm` and resolve the graph's batch
kernels (:func:`repro.graph.batch.batch_kernels`) at startup (the
warm-up), so every subsequent batch pays only task pickling — never
graph transfer, never workspace allocation.

Dispatch protocol
-----------------
The two batch primitives (:meth:`~repro.graph.batch.BatchBackend.
ecc_batch` and :meth:`~repro.graph.batch.BatchBackend.distance_rows`)
validate, de-duplicate and plan the lane width in the parent, as they
do for the in-process backend.  The pool then splits the sources into
contiguous chunks aligned to that width, write-targets them into one
shared *result* segment, and enqueues ``(kind, task_id, sources, out,
start, width, traced)`` tuples, where ``kind`` is ``"ecc"`` or
``"dist"``.  Workers fill their slice of the result segment directly — gathering is by construction ordered, the
parent never reassembles out-of-order pickles — and reply with their
:class:`repro.counters.TraversalCounter` totals plus wall-clock
seconds.  The parent merges the totals into the caller's counter and
emits one ``parallel.batch`` obs span per dispatch carrying chunk
sizes and per-worker timings.

When the parent's tracer is live, ``traced`` rides along in every
task: the worker runs it under a private buffering tracer (a
``parallel.task`` span wrapping the traversal spans the kernels emit)
and piggybacks the captured events on the ``done`` reply.  The parent
replays them in task order via
:meth:`repro.obs.trace.Tracer.emit_foreign` — seqs remapped into its
own sequence space, worker-side roots adopted by the owning
``parallel.batch`` span, every event stamped with ``worker=`` — which
folds each replayed engine event into the parent's metrics exactly as
an in-process run's events are folded.  A ``workers=N`` run therefore
produces one merged run record with correct causal nesting; only
task→worker assignment (the ``worker=`` tag) is scheduling-dependent.

Results and counter totals are identical to the in-process backend:
workers run the very same kernel function on the very same frozen CSR
bytes with the same lane groups, and chunking never reorders the
per-source outputs.

Lifecycle
---------
Pools are cached weakly per graph (:func:`pool_for`, mirroring
``engine_for``) and torn down on four paths: explicit :meth:`close`,
garbage collection of the pool (a ``weakref.finalize``), interpreter
exit (``atexit`` → :func:`shutdown_pools`), and parent death (workers
are daemons; they also translate ``SIGTERM`` into a clean
``SystemExit`` so their ``finally`` blocks close attached segments).
Segment names created here are additionally covered by the stdlib
resource tracker, so even a hard-killed parent leaks no shared memory.

Single probes never cross the process boundary — one BFS is far
cheaper than its IPC round-trip — which is why the oracles' probes
stay on the in-process engine under every backend.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import weakref
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError, ParallelBackendError
from repro.graph.batch import BatchBackend, batch_kernels
from repro.obs.trace import Stopwatch, get_tracer
from repro.parallel import shm as shm_mod

__all__ = [
    "ProcessBackend",
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
]

#: Load-balancing granularity: each dispatch is split into about this
#: many chunks per worker, so a straggler chunk idles at most ~1/4 of
#: one worker's share instead of half the batch.
_CHUNKS_PER_WORKER = 4

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 0.25

#: Seconds to wait for worker startup/ready handshakes.
_STARTUP_TIMEOUT = 60.0


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request: ``None`` means all usable cores."""
    if workers is None:
        try:
            available = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            available = os.cpu_count() or 1
        return max(1, available)
    if int(workers) < 1:
        raise InvalidParameterError("workers must be >= 1")
    return int(workers)


def _mp_context() -> Any:
    """Fork where available (cheap, COW pages), spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _counter_totals(counter: TraversalCounter) -> Dict[str, int]:
    """The mergeable scalar fields of a worker-side counter."""
    return {
        "bfs_runs": counter.bfs_runs,
        "edges_scanned": counter.edges_scanned,
        "edges_inspected": counter.edges_inspected,
        "vertices_visited": counter.vertices_visited,
        "relaxations": counter.relaxations,
    }


def _sigterm_to_exit(signum: int, frame: Optional[FrameType]) -> None:
    """Worker SIGTERM handler: unwind via ``finally`` blocks, not abort."""
    raise SystemExit(0)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_main(
    spec: "shm_mod.SharedGraphSpec",
    task_queue: Any,
    result_queue: Any,
    worker_id: int,
) -> None:
    """One worker: attach the shared graph, warm its kernels, serve tasks.

    All state is function-local on purpose — a worker is a loop over
    its queues, not a module with shared globals.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _sigterm_to_exit)
    # A forked worker inherits the parent's active tracer (and possibly
    # its memory sink); that inherited tracer is replaced outright.
    # When the parent dispatches a traced batch, each task runs under a
    # private buffering tracer instead, and its events ride back on
    # the result channel for the parent to re-emit (see
    # TraversalPool._emit_task_telemetry).
    from repro.obs.trace import MemorySink, Tracer, set_tracer

    set_tracer(Tracer())
    graph, graph_segment = shm_mod.attach(spec)
    kernels = batch_kernels(graph)
    out_segment: Optional[Any] = None
    out_name = ""
    try:
        result_queue.put(("ready", worker_id, os.getpid()))
        while True:
            task = task_queue.get()
            if task is None:
                break
            kind, task_id, sources, out_ref, start, width, traced = task
            try:
                watch = Stopwatch()
                counter = TraversalCounter()
                # Traced dispatch: run the task under a private
                # buffering tracer whose events ship back with the
                # result, so the parent can re-emit
                # them under its parallel.batch span.  The disabled
                # worker tracer is restored before replying.
                task_sink = MemorySink() if traced else None
                task_tracer = (
                    Tracer(task_sink) if task_sink is not None else None
                )
                prev_tracer = (
                    set_tracer(task_tracer)
                    if task_tracer is not None
                    else None
                )
                task_span = (
                    task_tracer.span(
                        "parallel.task",
                        kind=kind,
                        task=task_id,
                        num_sources=int(len(sources)),
                    )
                    if task_tracer is not None
                    else None
                )
                try:
                    name, array_spec = out_ref
                    if name != out_name:
                        if out_segment is not None:
                            out_segment.close()
                        out_segment = (
                            shm_mod._require_shared_memory().SharedMemory(
                                name=name
                            )
                        )
                        out_name = name
                    out = shm_mod.attach_array(out_segment, array_spec)
                    kernel = kernels.get(kind)
                    if kernel is None:
                        raise ParallelBackendError(
                            f"unknown task kind {kind!r}"
                        )
                    kernel(
                        sources,
                        out[start: start + len(sources)],
                        counter,
                        width,
                    )
                finally:
                    if task_span is not None:
                        task_span.finish()
                    if prev_tracer is not None:
                        set_tracer(prev_tracer)
                result_queue.put(
                    (
                        "done",
                        task_id,
                        worker_id,
                        _counter_totals(counter),
                        watch.elapsed(),
                        task_sink.events if task_sink is not None else None,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - reported to parent
                import traceback

                result_queue.put(
                    (
                        "error",
                        task_id,
                        worker_id,
                        f"{type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(),
                    )
                )
    finally:
        if out_segment is not None:
            out_segment.close()
        graph_segment.close()


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------
class _PoolResources:
    """Everything teardown must release, detached from the pool object.

    ``weakref.finalize`` must not hold the pool itself (that would pin
    it); it holds this bag instead, so GC-of-the-pool, ``close()`` and
    ``atexit`` all funnel into one idempotent :meth:`release`.
    """

    __slots__ = (
        "processes",
        "task_queue",
        "result_queue",
        "graph_share",
        "out_segment",
        "released",
    )

    def __init__(self) -> None:
        self.processes: List[Any] = []
        self.task_queue: Optional[Any] = None
        self.result_queue: Optional[Any] = None
        self.graph_share: Optional[shm_mod.SharedGraph] = None
        self.out_segment: Optional[Any] = None
        self.released = False

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        if self.task_queue is not None:
            for _ in self.processes:
                try:
                    self.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - closing
                    break
        for proc in self.processes:
            proc.join(timeout=5.0)
        for proc in self.processes:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        if self.result_queue is not None:
            self.result_queue.close()
        if self.out_segment is not None:
            self.out_segment.close()
            try:
                self.out_segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self.out_segment = None
        if self.graph_share is not None:
            self.graph_share.unlink()
            self.graph_share = None


def _release_resources(resources: _PoolResources) -> None:
    resources.release()


class TraversalPool(BatchBackend):
    """``W`` warm worker processes bound to one shared-memory graph.

    A batch backend: :meth:`ecc_batch` and :meth:`distance_rows` run on
    the workers.

    Parameters
    ----------
    graph:
        The (immutable) graph to publish.  The pool does **not** retain
        a reference — workers hold their own shared-memory views — so a
        pool in the weak registry never pins its graph alive.
    workers:
        Process count; ``None`` uses every usable core.
    """

    def __init__(self, graph: Any, workers: Optional[int] = None) -> None:
        if not shm_mod.shared_memory_available():  # pragma: no cover
            raise ParallelBackendError(
                "multiprocessing.shared_memory is unavailable; "
                "use backend='numpy'"
            )
        super().__init__(graph)
        self.workers = resolve_workers(workers)
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(
            self, _release_resources, self._resources
        )
        ctx = _mp_context()
        # Store-backed graphs publish as a file reference (workers map
        # the .rcsr pages); in-memory graphs copy into a segment.
        self._resources.graph_share = shm_mod.publish_graph(graph)
        self._resources.task_queue = ctx.SimpleQueue()
        self._resources.result_queue = ctx.Queue()
        try:
            for worker_id in range(self.workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        self._resources.graph_share.spec,
                        self._resources.task_queue,
                        self._resources.result_queue,
                        worker_id,
                    ),
                    daemon=True,
                    name=f"repro-traversal-{worker_id}",
                )
                proc.start()
                self._resources.processes.append(proc)
            self._await_ready()
        except BaseException:
            self._finalizer()
            raise

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the pool has been torn down."""
        return self._resources.released

    def close(self) -> None:
        """Shut workers down and release every shared segment (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "TraversalPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _await_ready(self) -> None:
        """Block until every worker has built its engine (the warm-up)."""
        pending = set(range(self.workers))
        watch = Stopwatch()
        while pending:
            message = self._next_message(_STARTUP_TIMEOUT - watch.elapsed())
            if message[0] != "ready":  # pragma: no cover - defensive
                raise ParallelBackendError(
                    f"unexpected startup message {message[0]!r}"
                )
            pending.discard(message[1])

    def _next_message(self, timeout: float) -> Tuple[Any, ...]:
        """One result-queue message, with worker-liveness supervision."""
        import queue as queue_mod

        result_queue = self._resources.result_queue
        assert result_queue is not None
        watch = Stopwatch()
        while True:
            try:
                return tuple(result_queue.get(timeout=_POLL_SECONDS))
            except queue_mod.Empty:
                dead = [
                    proc
                    for proc in self._resources.processes
                    if not proc.is_alive()
                ]
                if dead:
                    codes = ", ".join(
                        f"{proc.name}={proc.exitcode}" for proc in dead
                    )
                    self.close()
                    raise ParallelBackendError(
                        f"worker process(es) died mid-dispatch: {codes}"
                    ) from None
                if watch.elapsed() > timeout:
                    self.close()
                    raise ParallelBackendError(
                        "timed out waiting for worker results"
                    ) from None

    # -- dispatch -------------------------------------------------------
    def _chunk_bounds(self, total: int, align: int) -> List[int]:
        """Chunk start offsets for ``total`` sources (ascending, from 0).

        The balanced chunk size is rounded up to a multiple of the
        planned lane width ``align``, so chunk boundaries never split a
        sweep group — workers grouping by the same width then reproduce
        the in-process sweep partition (and its counter totals) exactly.
        """
        size = max(1, -(-total // (self.workers * _CHUNKS_PER_WORKER)))
        size = -(-size // align) * align
        return list(range(0, total, size))

    def _ensure_out(self, nbytes: int) -> Any:
        """The shared result segment, grown geometrically on demand."""
        out = self._resources.out_segment
        if out is not None and out.size >= nbytes:
            return out
        if out is not None:
            out.close()
            try:
                out.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        grown = max(nbytes, (out.size * 2) if out is not None else nbytes)
        fresh = shm_mod.create_segment(grown)
        self._resources.out_segment = fresh
        return fresh

    def _gather(
        self, num_tasks: int
    ) -> Tuple[
        TraversalCounter,
        Dict[str, float],
        Dict[int, Tuple[int, Any]],
    ]:
        """Collect ``num_tasks`` worker replies; merge counters/timings.

        Returns ``(merged_counter, worker_seconds, telemetry)`` where
        ``telemetry`` maps ``task_id -> (worker_id, events)``
        (``events`` is ``None`` when the task ran untraced).

        Raises :class:`ParallelBackendError` carrying every worker-side
        traceback if any task failed (after draining all replies, so the
        queue is clean for the next dispatch).
        """
        failures: List[str] = []
        worker_seconds: Dict[str, float] = {}
        telemetry: Dict[int, Tuple[int, Any]] = {}
        merged = TraversalCounter()
        for _ in range(num_tasks):
            message = self._next_message(timeout=3600.0)
            if message[0] == "error":
                failures.append(f"worker {message[2]}: {message[3]}")
            elif message[0] == "done":
                _tag, task_id, worker_id, totals, seconds, events = message
                merged.merge(TraversalCounter(**totals))
                key = f"w{worker_id}"
                worker_seconds[key] = (
                    worker_seconds.get(key, 0.0) + seconds
                )
                telemetry[int(task_id)] = (int(worker_id), events)
            else:  # pragma: no cover - defensive
                failures.append(f"unexpected message {message[0]!r}")
        if failures:
            raise ParallelBackendError(
                "parallel dispatch failed:\n" + "\n".join(failures)
            )
        return merged, worker_seconds, telemetry

    @staticmethod
    def _emit_task_telemetry(
        span: Any, telemetry: Dict[int, Tuple[int, Any]]
    ) -> None:
        """Re-emit worker-buffered events under the batch span.

        Tasks replay in ``task_id`` order — the one deterministic order
        a dispatch has (which *worker* served a task is scheduling
        noise, recorded as the ``worker=`` attribute on every
        re-emitted event).  ``parent`` seqs are remapped into the
        parent tracer's seq space by :meth:`Tracer.emit_foreign`, with
        the owning ``parallel.batch`` span adopting the worker-side
        roots, and the replayed engine events fold into the parent's
        metrics.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        for task_id in sorted(telemetry):
            worker_id, events = telemetry[task_id]
            if events:
                tracer.emit_foreign(
                    events, parent=span.seq, worker=worker_id
                )

    def _run(
        self,
        kind: str,
        src: np.ndarray,
        row_shape: Tuple[int, ...],
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        """Fan one batch out; return a caller-owned result array.

        ``row_shape`` is the per-source result shape: ``()`` for one
        eccentricity per source, ``(n,)`` for a distance row.  ``width``
        is the parent-planned lane width (0 = single-source loop); it
        both aligns the chunking and rides along in each task so workers
        group sweeps exactly as the in-process backend.
        """
        if self.closed:
            raise ParallelBackendError("pool is closed")
        shape = (len(src),) + row_shape
        result = np.empty(shape, dtype=np.int32)
        if len(src) == 0:
            return result
        out_spec = shm_mod.ArraySpec(
            key="out", offset=0, shape=shape, dtype="int32"
        )
        segment = self._ensure_out(result.nbytes)
        out_ref = (segment.name, out_spec)
        starts = self._chunk_bounds(len(src), max(1, width))
        chunk = starts[1] if len(starts) > 1 else len(src)
        task_queue = self._resources.task_queue
        assert task_queue is not None
        traced = get_tracer().enabled
        with get_tracer().span(
            "parallel.batch",
            kind=kind,
            backend="process",
            workers=self.workers,
            num_sources=int(len(src)),
            chunks=[int(min(len(src), s + chunk) - s) for s in starts],
        ) as span:
            for task_id, start in enumerate(starts):
                task_queue.put(
                    (
                        kind,
                        task_id,
                        src[start: start + chunk],
                        out_ref,
                        start,
                        width,
                        traced,
                    )
                )
            merged, worker_seconds, telemetry = self._gather(len(starts))
            if counter is not None:
                counter.merge(merged)
            view = shm_mod.attach_array(segment, out_spec)
            result[...] = view
            self._emit_task_telemetry(span, telemetry)
            span.set(
                tasks=len(starts),
                traversals=merged.bfs_runs,
                edges_scanned=merged.edges_scanned,
                edges_inspected=merged.edges_inspected,
                worker_seconds=worker_seconds,
            )
        return result


class ProcessBackend(BatchBackend):
    """What ``make_backend(graph, "process")`` returns: batches run on
    the graph's cached pool.

    The pool is looked up (:func:`pool_for`) on every batch, so it is
    created on the first one and rebuilt after a worker death or
    :func:`shutdown_pools` closed it.
    """

    def __init__(self, graph: Any, workers: Optional[int] = None) -> None:
        super().__init__(graph)
        resolve_workers(workers)  # reject a bad count before any batch
        self._graph = graph
        self._workers = workers

    def _run(
        self,
        kind: str,
        src: np.ndarray,
        row_shape: Tuple[int, ...],
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        pool = pool_for(self._graph, workers=self._workers)
        return pool._run(kind, src, row_shape, width, counter)


# ---------------------------------------------------------------------------
# Per-graph registry (mirrors engine_for)
# ---------------------------------------------------------------------------
_POOLS: "weakref.WeakKeyDictionary[Any, TraversalPool]" = (
    weakref.WeakKeyDictionary()
)
_POOLS_LOCK = threading.Lock()


def pool_for(graph: Any, workers: Optional[int] = None) -> TraversalPool:
    """The cached :class:`TraversalPool` of ``graph`` (created on demand).

    A cached pool is reused when ``workers`` is ``None`` or matches its
    size; a mismatching request tears the old pool down and builds a
    fresh one (pools are heavy — two differently-sized pools per graph
    would double every workspace).
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(graph)
        if pool is not None and not pool.closed:
            if workers is None or pool.workers == resolve_workers(workers):
                return pool
            pool.close()
        pool = TraversalPool(graph, workers=workers)
        _POOLS[graph] = pool
    return pool


def shutdown_pools() -> None:
    """Close every cached pool (tests, atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
