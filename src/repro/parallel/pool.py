"""Persistent per-graph worker pool for batched eccentricity dispatch.

This is the engine room of ``backend="process"``
(:func:`repro.graph.batch.ecc_batch`): a :class:`TraversalPool` owns
``W`` long-lived worker processes that each receive the graph as their
``Process`` argument and build its engine at startup (the warm-up), so
every subsequent batch pays only task pickling — never graph transfer,
never workspace allocation.

Graph hand-off
--------------
Under fork (preferred where available, :func:`_mp_context`) a worker
inherits the parent's CSR pages — or the parent's ``.rcsr`` memory
map — without a copy.  Under spawn the graph is pickled, one copy per
worker; answers are the same.  ``BaseProcess.start`` drops a process's
arguments once it has started, so the pool holds no reference to the
graph and a pool in the weak registry never keeps its graph alive.

Dispatch protocol
-----------------
The pool serves one primitive, :meth:`TraversalPool.dispatch`: the
eccentricities of a batch that :func:`repro.graph.batch.ecc_batch`
has already validated, de-duplicated and planned, exactly as it does
in-process.  The parent splits the sources into contiguous chunks
aligned to the planned lane width and enqueues ``(task_id, sources,
width, traced)`` tuples.  Each worker runs the in-process lane-group
loop (:func:`repro.graph.batch.lane_groups`) on its chunk and replies
``done`` with the chunk's ``int32`` eccentricities, its
:class:`repro.counters.TraversalCounter` totals and history, and its
wall-clock seconds.  The parent writes each chunk's eccentricities into
the result at the offset its ``task_id`` names, merges the counters
into the caller's in ``task_id`` order and emits one
``parallel.batch`` obs span per dispatch carrying chunk sizes and
per-worker timings.

When the parent's tracer is live, ``traced`` rides along in every
task: the worker runs it under a private buffering tracer (a
``parallel.task`` span wrapping the traversal spans the kernel emits)
and piggybacks the captured events on the ``done`` reply.  The parent
replays them in task order via
:meth:`repro.obs.trace.Tracer.emit_foreign` — seqs remapped into its
own sequence space, worker-side roots adopted by the owning
``parallel.batch`` span, every event stamped with ``worker=`` — which
folds each replayed engine event into the parent's metrics exactly as
an in-process run's events are folded.  A ``workers=N`` run therefore
produces one merged run record with correct causal nesting; only
task→worker assignment (the ``worker=`` tag) is scheduling-dependent.

Results, counter totals and history are identical to the in-process
backend: workers run the very same loop on the very same CSR bytes
with the same lane groups, and chunking never reorders the per-source
outputs.

Lifecycle
---------
Pools are cached weakly per graph (:func:`pool_for`, mirroring
``engine_for``) and torn down on three paths: explicit :meth:`close`,
garbage collection of the pool (a ``weakref.finalize``) and
interpreter exit (``atexit`` → :func:`shutdown_pools`).  Workers are
daemons, so they also die with the parent.  A worker that dies
mid-batch turns the dispatch into a :class:`ParallelBackendError`
naming it and closes the pool; the next batch builds a fresh one.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import ParallelBackendError
from repro.graph.batch import lane_groups, resolve_workers
from repro.graph.engine import engine_for
from repro.obs.trace import Stopwatch, get_tracer

__all__ = [
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


def _mp_context() -> Any:
    """Fork where available (the graph's pages are inherited), spawn
    elsewhere (the graph is pickled)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_main(
    graph: Any,
    task_queue: Any,
    result_queue: Any,
    worker_id: int,
) -> None:
    """One worker: warm the graph's engine, then serve tasks.

    All state is function-local on purpose — a worker is a loop over
    its queues, not a module with shared globals.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A forked worker inherits the parent's active tracer (and possibly
    # its memory sink); that inherited tracer is replaced outright.
    # When the parent dispatches a traced batch, each task runs under a
    # private buffering tracer instead, and its events ride back on
    # the result channel for the parent to re-emit (see
    # TraversalPool._emit_task_telemetry).
    from repro.obs.trace import MemorySink, Tracer, set_tracer

    set_tracer(Tracer())
    engine_for(graph)
    result_queue.put(("ready", worker_id, os.getpid()))
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id, sources, width, traced = task
        try:
            watch = Stopwatch()
            counter = TraversalCounter()
            # Traced dispatch: run the task under a private buffering
            # tracer whose events ship back with the result, so the
            # parent can re-emit them under its parallel.batch span.
            # The disabled worker tracer is restored before replying.
            task_sink = MemorySink() if traced else None
            task_tracer = Tracer(task_sink) if task_sink is not None else None
            prev_tracer = (
                set_tracer(task_tracer) if task_tracer is not None else None
            )
            task_span = (
                task_tracer.span(
                    "parallel.task",
                    kind="ecc",
                    task=task_id,
                    num_sources=int(len(sources)),
                )
                if task_tracer is not None
                else None
            )
            try:
                ecc = lane_groups(graph, sources, width, counter)
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
                    ecc,
                    counter.totals(),
                    counter.history,
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
                    f"{type(exc).__name__}: {exc}\n" + traceback.format_exc(),
                )
            )


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------
class _PoolResources:
    """Everything teardown must release, detached from the pool object.

    ``weakref.finalize`` must not hold the pool itself (that would pin
    it); it holds this bag instead, so GC-of-the-pool, ``close()`` and
    ``atexit`` all funnel into one idempotent :meth:`release`.
    """

    __slots__ = ("processes", "task_queue", "result_queue", "released")

    def __init__(self) -> None:
        self.processes: List[Any] = []
        self.task_queue: Optional[Any] = None
        self.result_queue: Optional[Any] = None
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


def _release_resources(resources: _PoolResources) -> None:
    resources.release()


class TraversalPool:
    """``W`` warm worker processes bound to one graph.

    :meth:`dispatch` runs a planned batch's lane groups on the workers.

    Parameters
    ----------
    graph:
        The (immutable) graph the workers traverse.  It is handed to
        each worker as its ``Process`` argument, and the pool keeps no
        reference to it, so a pool in the weak registry never pins its
        graph alive.
    workers:
        Process count; ``None`` uses every usable core.
    """

    def __init__(self, graph: Any, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(
            self, _release_resources, self._resources
        )
        ctx = _mp_context()
        self._resources.task_queue = ctx.SimpleQueue()
        self._resources.result_queue = ctx.Queue()
        try:
            for worker_id in range(self.workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        graph,
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
        """Shut the workers down (idempotent)."""
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

    def _gather(
        self, num_tasks: int
    ) -> Tuple[
        TraversalCounter,
        Dict[str, float],
        Dict[int, Tuple[int, np.ndarray, Any]],
    ]:
        """Collect ``num_tasks`` worker replies; merge counters/timings.

        Returns ``(merged_counter, worker_seconds, replies)`` where
        ``replies`` maps ``task_id -> (worker_id, ecc, events)``
        (``events`` is ``None`` when the task ran untraced).

        Raises :class:`ParallelBackendError` carrying every worker-side
        traceback if any task failed (after draining all replies, so the
        queue is clean for the next dispatch).
        """
        failures: List[str] = []
        worker_seconds: Dict[str, float] = {}
        replies: Dict[int, Tuple[int, np.ndarray, Any]] = {}
        counters: Dict[int, TraversalCounter] = {}
        for _ in range(num_tasks):
            message = self._next_message(timeout=3600.0)
            if message[0] == "error":
                failures.append(f"worker {message[2]}: {message[3]}")
            elif message[0] == "done":
                (
                    _tag,
                    task_id,
                    worker_id,
                    ecc,
                    totals,
                    history,
                    seconds,
                    events,
                ) = message
                counters[int(task_id)] = TraversalCounter(
                    **totals, history=history
                )
                key = f"w{worker_id}"
                worker_seconds[key] = (
                    worker_seconds.get(key, 0.0) + seconds
                )
                replies[int(task_id)] = (int(worker_id), ecc, events)
            else:  # pragma: no cover - defensive
                failures.append(f"unexpected message {message[0]!r}")
        if failures:
            raise ParallelBackendError(
                "parallel dispatch failed:\n" + "\n".join(failures)
            )
        # Task order is source order: histories merge as the in-process
        # loop records them, whichever worker answered first.
        merged = TraversalCounter()
        for task_id in sorted(counters):
            merged.merge(counters[task_id])
        return merged, worker_seconds, replies

    @staticmethod
    def _emit_task_telemetry(
        span: Any, replies: Dict[int, Tuple[int, np.ndarray, Any]]
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
        for task_id in sorted(replies):
            worker_id, _ecc, events = replies[task_id]
            if events:
                tracer.emit_foreign(
                    events, parent=span.seq, worker=worker_id
                )

    def dispatch(
        self,
        src: np.ndarray,
        width: int,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Eccentricities of ``src``, fanned out; a caller-owned array.

        ``src`` holds distinct, validated sources and ``width`` is their
        planned lane width (0 = single-source loop), as
        :func:`repro.graph.batch.ecc_batch` hands them over.  The width
        both aligns the chunking and rides along in each task, so
        workers group sweeps exactly as the in-process loop does.
        """
        if self.closed:
            raise ParallelBackendError("pool is closed")
        result = np.empty(len(src), dtype=np.int32)
        if len(src) == 0:
            return result
        starts = self._chunk_bounds(len(src), max(1, width))
        chunk = starts[1] if len(starts) > 1 else len(src)
        task_queue = self._resources.task_queue
        assert task_queue is not None
        traced = get_tracer().enabled
        with get_tracer().span(
            "parallel.batch",
            kind="ecc",
            backend="process",
            workers=self.workers,
            num_sources=int(len(src)),
            chunks=[int(min(len(src), s + chunk) - s) for s in starts],
        ) as span:
            for task_id, start in enumerate(starts):
                task_queue.put(
                    (task_id, src[start: start + chunk], width, traced)
                )
            merged, worker_seconds, replies = self._gather(len(starts))
            if counter is not None:
                counter.merge(merged)
            for task_id, start in enumerate(starts):
                result[start: start + chunk] = replies[task_id][1]
            self._emit_task_telemetry(span, replies)
            span.set(
                tasks=len(starts),
                traversals=merged.bfs_runs,
                edges_scanned=merged.edges_scanned,
                edges_inspected=merged.edges_inspected,
                worker_seconds=worker_seconds,
            )
        return result


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
