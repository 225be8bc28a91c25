"""The batch-traversal seam: two primitives behind one backend object.

Algorithm 2's probes are sequential — each FFO probe depends on the
bounds the previous one left — so the only traversal work that can fan
out is a *batch*: the |V|-BFS oracle and the MS-BFS lane sweeps of the
paper's reference [35].  A backend object exposes exactly two batch
primitives:

``ecc_batch(sources, counter)``
    the eccentricity of every source (within its component);
``distance_rows(sources, counter)``
    one caller-owned distance row per source.

:func:`make_backend` picks the object once, from a ``backend=`` /
``workers=`` pair.  :class:`InProcessBackend` runs the graph's kernels
in this process; :class:`repro.parallel.pool.TraversalPool` runs the
*same* kernels (:func:`batch_kernels`) in worker processes over a
shared-memory copy of the graph.  Everything else is done once, above
both, in :class:`BatchBackend`: sources are validated and
de-duplicated, and the lane width is planned over the whole batch.  So
answers *and* traversal counters do not depend on the backend.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph.engine import engine_for
from repro.graph.msengine import fill_distance_rows, plan_lane_width

__all__ = [
    "BACKENDS",
    "BatchBackend",
    "InProcessBackend",
    "batch_kernels",
    "make_backend",
]

#: The backend names :func:`make_backend` accepts.
BACKENDS = ("numpy", "process")

#: ``kernel(sources, out, counter, width)``: fill ``out[i]`` for
#: ``sources[i]``, grouping lane sweeps by ``width`` (0 = one
#: single-source traversal per source).
Kernel = Callable[[np.ndarray, np.ndarray, Optional[TraversalCounter], int], None]


def batch_kernels(graph: Any) -> Dict[str, Kernel]:
    """The graph's kernel for each primitive, keyed by task kind.

    ``"ecc"`` backs :meth:`BatchBackend.ecc_batch` and ``"dist"``
    :meth:`BatchBackend.distance_rows`.  Both run the planned lane
    sweeps of :mod:`repro.graph.msengine` (forward, on a directed
    graph).
    """
    return {
        "ecc": engine_for(graph).ecc_batch,
        "dist": partial(fill_distance_rows, graph),
    }


class BatchBackend:
    """What every backend shares: validate, de-duplicate, plan, expand.

    Subclasses implement :meth:`_run`, which executes one kernel over
    distinct, validated sources with the planned lane width.
    """

    def __init__(self, graph: Any) -> None:
        self.num_vertices = graph.num_vertices
        self.num_arcs = engine_for(graph).num_arcs

    def ecc_batch(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Eccentricity of every source, in ``sources`` order.

        :dtype ecc: int32
        """
        return self._planned("ecc", sources, (), counter)

    def distance_rows(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """One caller-owned distance row per source, in ``sources`` order.

        :dtype rows: int32
        """
        return self._planned("dist", sources, (self.num_vertices,), counter)

    def _planned(
        self,
        kind: str,
        sources: Sequence[int],
        row_shape: Tuple[int, ...],
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        """Validate, de-duplicate and plan; run; expand duplicates back.

        :dtype src: int64
        """
        n = self.num_vertices
        src = np.ascontiguousarray(sources, dtype=np.int64)
        if src.ndim != 1:
            raise InvalidParameterError("sources must be one-dimensional")
        if src.size and (src.min() < 0 or src.max() >= n):
            bad = src[(src < 0) | (src >= n)][0]
            raise InvalidVertexError(int(bad), n)
        uniq, inverse = np.unique(src, return_inverse=True)
        # A repeated source is traversed once; every copy still counts
        # as one run, as in the per-source loop.
        distinct = src if len(uniq) == len(src) else uniq
        width = plan_lane_width(n, self.num_arcs, len(distinct))
        out = self._run(kind, distinct, row_shape, width, counter)
        if distinct is src:
            return out
        if counter is not None:
            counter.bfs_runs += len(src) - len(uniq)
        return out[inverse]

    def _run(
        self,
        kind: str,
        src: np.ndarray,
        row_shape: Tuple[int, ...],
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        """Run the ``kind`` kernel over ``src``; a caller-owned result."""
        raise NotImplementedError


class InProcessBackend(BatchBackend):
    """The default backend: the graph's kernels run in this process."""

    def __init__(self, graph: Any) -> None:
        super().__init__(graph)
        self._kernels = batch_kernels(graph)

    def _run(
        self,
        kind: str,
        src: np.ndarray,
        row_shape: Tuple[int, ...],
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        out = np.empty((len(src),) + row_shape, dtype=np.int32)
        self._kernels[kind](src, out, counter, width)
        return out


def make_backend(
    graph: Any, backend: str = "numpy", workers: Optional[int] = None
) -> BatchBackend:
    """The batch backend for ``graph``, chosen once.

    ``"numpy"`` (the default) runs batches in this process;
    ``"process"`` runs them on the graph's cached worker pool
    (:func:`repro.parallel.pool.pool_for`, ``workers`` processes, all
    usable cores when ``None``), created on the first batch.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "process":
        from repro.parallel.pool import ProcessBackend

        return ProcessBackend(graph, workers)
    return InProcessBackend(graph)
