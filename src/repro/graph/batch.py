"""The batch-traversal seam: one primitive behind one backend object.

Algorithm 2's probes are sequential — each FFO probe depends on the
bounds the previous one left — so the only traversal work that can fan
out is a *batch* of eccentricities: the |V|-BFS oracle and the MS-BFS
lane sweeps of the paper's reference [35].  A backend object exposes
that one primitive, ``ecc_batch(sources, counter)``: the eccentricity
of every source (within its component).

:func:`make_backend` picks the object once, from a ``backend=`` /
``workers=`` pair.  :class:`InProcessBackend` runs the graph's engine
in this process; :class:`repro.parallel.pool.TraversalPool` runs the
*same* kernel (:meth:`repro.graph.engine.BFSEngine.ecc_batch`) in
worker processes that inherit the graph.  Everything else is done
once, above both, in :class:`BatchBackend`: sources are validated and
de-duplicated, and the lane width is planned over the whole batch.  So
answers *and* traversal counters do not depend on the backend.

Distance rows are an in-process batch only
(:meth:`InProcessBackend.distance_rows`, behind
:func:`repro.graph.msengine.batch_distance_rows`): they go through the
same validation, de-duplication and lane planning.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph.engine import csr_pair, engine_for
from repro.graph.msengine import fill_distance_rows, plan_lane_width

__all__ = [
    "BACKENDS",
    "BatchBackend",
    "InProcessBackend",
    "make_backend",
]

#: The backend names :func:`make_backend` accepts.
BACKENDS = ("numpy", "process")

#: ``run(sources, width, counter)``: a caller-owned result for distinct,
#: validated sources, grouping lane sweeps by ``width`` (0 = one
#: single-source traversal per source).
Run = Callable[[np.ndarray, int, Optional[TraversalCounter]], np.ndarray]


class BatchBackend:
    """What every backend shares: validate, de-duplicate, plan, expand.

    Subclasses implement :meth:`_ecc`, which computes the
    eccentricities of distinct, validated sources with the planned
    lane width.
    """

    def __init__(self, graph: Any) -> None:
        self.num_vertices = graph.num_vertices
        # Read off the CSR, not an engine: a pool's parent never builds
        # one (an engine would keep its graph alive).
        self.num_arcs = int(len(csr_pair(graph)[0][1]))

    def ecc_batch(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Eccentricity of every source, in ``sources`` order.

        :dtype ecc: int32
        """
        return self._planned(sources, counter, self._ecc)

    def _planned(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter],
        run: Run,
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
        out = run(distinct, width, counter)
        if distinct is src:
            return out
        if counter is not None:
            counter.bfs_runs += len(src) - len(uniq)
        return out[inverse]

    def _ecc(
        self,
        src: np.ndarray,
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        """Eccentricities of ``src``; a caller-owned ``int32`` array."""
        raise NotImplementedError


class InProcessBackend(BatchBackend):
    """The default backend: the graph's engine runs in this process."""

    def __init__(self, graph: Any) -> None:
        super().__init__(graph)
        self._graph = graph
        self._engine = engine_for(graph)

    def _ecc(
        self,
        src: np.ndarray,
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        return self._engine.ecc_batch(src, counter=counter, width=width)

    def distance_rows(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """One caller-owned distance row per source, in ``sources`` order.

        :dtype rows: int32
        """
        return self._planned(sources, counter, self._rows)

    def _rows(
        self,
        src: np.ndarray,
        width: int,
        counter: Optional[TraversalCounter],
    ) -> np.ndarray:
        rows = np.empty((len(src), self.num_vertices), dtype=np.int32)
        fill_distance_rows(self._graph, src, rows, counter, width)
        return rows


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
