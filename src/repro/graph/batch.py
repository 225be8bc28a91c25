"""The batch-traversal seam: one planner and one lane-group loop.

Algorithm 2's probes are sequential — each FFO probe depends on the
bounds the previous one left — so the only traversal work that can fan
out is a *batch* of sources: the |V|-BFS oracle, FFO seeding and the
sampling baselines, swept as the MS-BFS lanes of the paper's reference
[35].  This module is the only code that validates such a batch,
de-duplicates it, plans its lane width and loops its lane groups, for
both things a batch can return:

* :func:`ecc_batch` — the eccentricity of every source (within its
  component), in this process or on the graph's worker pool;
* :func:`distance_rows` — one distance row per source, in this
  process (``repro.graph.batch_distance_rows``).

The solver plans its own FFO probes; :func:`sweep_columns` sweeps them,
one source on the single-source engine, several as lanes.

Both run through the private planner, which hands distinct, validated
sources and a lane width (:func:`repro.graph.msengine.plan_lane_width`)
to :func:`lane_groups`: width 0 loops the graph's single-source engine
(:func:`repro.graph.engine.engine_for`), any other width sweeps its lane
engine (:func:`repro.graph.msengine.msengine_for`) one group at a time.
``backend="process"`` changes only who runs the loop: the parent plans
as above and :meth:`repro.parallel.pool.TraversalPool.dispatch` hands
each worker a chunk of whole lane groups, which the worker runs through
the same :func:`lane_groups`.  So answers *and* traversal counters do
not depend on the backend.  A directed graph's batches run forward.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError
from repro.graph.engine import as_vertex_ids, engine_for
from repro.graph.msengine import msengine_for, plan_lane_width

__all__ = [
    "BACKENDS",
    "check_backend",
    "distance_rows",
    "ecc_batch",
    "lane_groups",
    "resolve_workers",
    "sweep_columns",
]

#: The ``backend=`` names :func:`ecc_batch` accepts.
BACKENDS = ("numpy", "process")

#: ``run(sources, width, counter)``: the result for distinct, validated
#: sources, lane groups of ``width`` (0 = one traversal per source).
_Run = Callable[[np.ndarray, int, Optional[TraversalCounter]], np.ndarray]


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


def check_backend(backend: str, workers: Optional[int]) -> None:
    """Reject an unknown backend name or a worker count below one."""
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if workers is not None:
        resolve_workers(workers)


def ecc_batch(
    graph: Any,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
    backend: str = "numpy",
    workers: Optional[int] = None,
) -> np.ndarray:
    """Eccentricity of every source, in ``sources`` order.

    ``backend="numpy"`` (the default) runs the lane groups in this
    process; ``"process"`` runs them on the graph's cached worker pool
    (:func:`repro.parallel.pool.pool_for`, ``workers`` processes, all
    usable cores when ``None``), created on the first batch.  Every
    copy of a repeated source counts as one traversal run.

    :dtype ecc: int32
    """
    check_backend(backend, workers)
    run: _Run = (
        partial(_on_pool, graph, workers)
        if backend == "process"
        else partial(lane_groups, graph)
    )
    return _planned(graph, sources, counter, run)


def distance_rows(
    graph: Any,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """One caller-owned distance row per source, in ``sources`` order.

    Row ``i`` of the ``(len(sources), n)`` matrix equals
    ``bfs_distances(graph, sources[i])`` bit for bit under every lane
    plan; every copy of a repeated source counts as one traversal run.

    :dtype rows: int32
    """
    run = partial(lane_groups, graph, rows=True)
    return _planned(graph, sources, counter, run)


def lane_groups(
    graph: Any,
    src: np.ndarray,
    width: int,
    counter: Optional[TraversalCounter] = None,
    rows: bool = False,
) -> np.ndarray:
    """Eccentricities (or, with ``rows``, distance rows) of ``src``.

    ``src`` holds distinct, validated sources; ``width`` is the lane
    width planned over the whole batch.  ``0`` loops the single-source
    engine, any other width sweeps ``width`` sources at a time on the
    lane engine.  Each source is credited as one traversal run.  Returns
    a caller-owned ``int32`` array: ``(len(src),)`` eccentricities, or
    ``(len(src), n)`` rows.
    """
    n = graph.num_vertices
    out = np.empty((len(src), n) if rows else len(src), dtype=np.int32)
    if width == 0:
        engine = engine_for(graph)
        for i in range(len(src)):
            dist = engine.run(int(src[i]), counter=counter)
            if rows:
                out[i, :] = dist
            else:
                out[i] = engine.last_ecc
        return out
    ms = msengine_for(graph)
    sweep = ms.run_batch if rows else ms.ecc_batch
    for start in range(0, len(src), width):
        group = src[start: start + width]
        out[start: start + len(group)] = sweep(group, counter=counter)
    return out


def sweep_columns(
    graph: Any,
    sources: Sequence[int],
    targets: Sequence[int],
    counter: Optional[TraversalCounter] = None,
    backward: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(eccs, cols)``: one traversal from each source, read at ``targets``.

    ``targets`` are strictly increasing vertex ids; ``cols[i, j]`` is
    the distance of ``targets[j]`` in the traversal from ``sources[i]``
    (with ``backward``, a directed graph's ``dist(targets[j],
    sources[i])``) and ``eccs[i]`` that traversal's eccentricity.  One
    source runs the single-source engine and is credited as one
    traversal run; several sweep as lanes
    (:meth:`repro.graph.msengine.MSBFSEngine.column_batch`), credited as
    pending lanes.  ``cols`` is caller-owned either way.

    :dtype eccs: int32
    :dtype cols: int32
    """
    if len(sources) != 1:
        return msengine_for(graph, backward).column_batch(
            sources, targets, counter=counter
        )
    engine = engine_for(graph, backward)
    dist = engine.run(int(sources[0]), counter=counter)
    # A fresh array: under the sanitizer a gather from the loan is
    # itself a loan, and the solver writes into the block it gets.
    cols = np.empty((1, len(targets)), dtype=np.int32)
    cols[0] = dist[targets]
    return np.array([engine.last_ecc], dtype=np.int32), cols


def _on_pool(
    graph: Any,
    workers: Optional[int],
    src: np.ndarray,
    width: int,
    counter: Optional[TraversalCounter],
) -> np.ndarray:
    """:func:`lane_groups` on the graph's cached worker pool."""
    from repro.parallel.pool import pool_for

    return pool_for(graph, workers).dispatch(src, width, counter)


def _planned(
    graph: Any,
    sources: Sequence[int],
    counter: Optional[TraversalCounter],
    run: _Run,
) -> np.ndarray:
    """Validate, de-duplicate and plan; run; expand duplicates back.

    :dtype src: int64
    """
    src = as_vertex_ids(sources, graph.num_vertices)
    uniq, inverse = np.unique(src, return_inverse=True)
    # A repeated source is traversed once; every copy still counts as
    # one run, as in the per-source loop.
    distinct = src if len(uniq) == len(src) else uniq
    num_arcs = graph.out_csr.num_arcs
    out = run(distinct, plan_lane_width(num_arcs, len(distinct)), counter)
    if distinct is src:
        return out
    if counter is not None:
        counter.record(0, 0, runs=len(src) - len(uniq))
    return out[inverse]
