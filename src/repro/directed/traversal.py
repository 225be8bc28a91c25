"""Forward and backward BFS on directed graphs.

Also home of :class:`DirectedBFSOracle`, the asymmetric-metric back-end
of the generic solver: its reverse-distance hook is what lets
:class:`repro.core.solver.EccentricitySolver` run the paper's Algorithm
2 on digraphs, where ``dist(v, t) != dist(t, v)`` and a sweep probe is a
single *backward* BFS that yields no forward eccentricity.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.counters import TraversalCounter
from repro.errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    InvalidVertexError,
)
from repro.graph.batch import make_backend
from repro.sentinels import UNREACHED
from repro.directed.graph import DirectedGraph

__all__ = [
    "forward_bfs",
    "backward_bfs",
    "forward_eccentricities",
    "forward_distance_rows",
    "is_strongly_connected",
    "DirectedBFSOracle",
]


def _bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    source: int,
    counter: Optional[TraversalCounter],
    label: str,
) -> np.ndarray:
    """Level-synchronous BFS over one arc direction.

    :dtype dist: int32
    :dtype frontier: int64
    """
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    edges = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        csum = np.cumsum(counts)
        offsets = np.repeat(starts - (csum - counts), counts)
        neighbors = indices[np.arange(total, dtype=np.int64) + offsets]
        edges += total
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        level += 1
        dist[fresh] = level
        frontier = np.unique(fresh).astype(np.int64)
    if counter is not None:
        counter.record(
            edges, int(np.count_nonzero(dist != UNREACHED)), label=label
        )
    return dist


def forward_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances ``dist(source, v)`` along arc directions."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise InvalidVertexError(source, n)
    indptr, indices = graph.forward_view()
    return _bfs(indptr, indices, n, source, counter, f"fwd:{source}")


def backward_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances ``dist(v, source)`` — i.e. along *reversed* arcs."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise InvalidVertexError(source, n)
    indptr, indices = graph.backward_view()
    return _bfs(indptr, indices, n, source, counter, f"bwd:{source}")


def forward_eccentricities(
    graph: DirectedGraph,
    sources: np.ndarray,
    out: np.ndarray,
    counter: Optional[TraversalCounter] = None,
    width: int = 0,
) -> None:
    """Forward eccentricities, one forward BFS per source.

    The directed ``ecc_batch`` kernel of both batch backends
    (:mod:`repro.graph.batch`); directed sweeps have no lanes, so
    ``width`` is ignored.  ``out[i] = -1`` marks a source that does not
    reach every vertex — the caller decides whether that is a
    :class:`DisconnectedGraphError`.

    :mutates out: ``out[i]`` is overwritten with ``ecc(sources[i])``.
    """
    n = graph.num_vertices
    for i in range(len(sources)):
        dist = forward_bfs(graph, int(sources[i]), counter=counter)
        missed = n > 1 and bool(np.any(dist == UNREACHED))
        out[i] = -1 if missed else (int(dist.max()) if n else 0)


def forward_distance_rows(
    graph: DirectedGraph,
    sources: np.ndarray,
    out: np.ndarray,
    counter: Optional[TraversalCounter] = None,
    width: int = 0,
) -> None:
    """Forward distance rows ``dist(sources[i], .)``, one BFS each.

    The directed ``distance_rows`` kernel of both batch backends;
    ``width`` is ignored as in :func:`forward_eccentricities`.

    :mutates out: row ``i`` is overwritten with ``dist(sources[i], .)``.
    """
    for i in range(len(sources)):
        out[i] = forward_bfs(graph, int(sources[i]), counter=counter)


def is_strongly_connected(graph: DirectedGraph) -> bool:
    """True when every ordered pair is connected (finite directed ecc).

    One forward plus one backward BFS from vertex 0 suffice.
    """
    n = graph.num_vertices
    if n <= 1:
        return True
    if np.any(forward_bfs(graph, 0) == UNREACHED):
        return False
    return not np.any(backward_bfs(graph, 0) == UNREACHED)


class DirectedBFSOracle:
    """The strongly-connected digraph oracle (asymmetric, ``int32``).

    Probe economics differ from the symmetric oracles in exactly the two
    ways the :class:`repro.core.oracles.DistanceOracle` protocol allows:

    * :meth:`source_probe` pays a forward + backward BFS *pair* (two
      counted traversals) — forward for ``ecc_f`` and the FFO, backward
      for the ``dist(., t)`` vector every bound update needs;
    * :meth:`sweep_probe` is a single backward BFS and returns ``None``
      for the eccentricity: ``max_v dist(v, t)`` is the *backward*
      eccentricity, not the forward one being computed, so the solver
      skips the ``set_exact`` step for probed sweep sources.

    ``backend``/``workers`` choose the batch backend behind
    :meth:`ecc_all` (:func:`repro.graph.batch.make_backend`); probes
    always run in-process, as on :class:`repro.core.oracles.BFSOracle`.
    """

    dtype = np.dtype(np.int32)
    tolerance = 0.0
    symmetric = False
    metric_name = "DirectedIFECC"
    trace_kind = "bfs-directed"

    def __init__(
        self,
        graph: DirectedGraph,
        backend: str = "numpy",
        workers: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.backend = make_backend(graph, backend, workers)

    def ecc_all(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Forward eccentricities for ``sources`` (default: all vertices).

        Runs on the batch backend.  Raises
        :class:`DisconnectedGraphError` when any source fails to reach
        the whole graph — directed eccentricities are only finite on
        strongly connected digraphs.

        :dtype: int32
        """
        if sources is None:
            sources = np.arange(self.num_vertices, dtype=np.int64)
        ecc = self.backend.ecc_batch(sources, counter=counter)
        if np.any(ecc < 0):
            raise self.disconnected_error()
        return ecc

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        # Highest out-degree, ties to the smaller id (stable argsort →
        # count=1 matches argmax(out_degrees)).
        if strategy != "degree":
            raise InvalidParameterError(
                f"directed solver supports only the 'degree' strategy, "
                f"got {strategy!r}"
            )
        order = np.argsort(-self.graph.out_degrees(), kind="stable")
        return order[:count].astype(np.int32)

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        fwd = sanitize.assert_owned(
            forward_bfs(self.graph, source, counter=counter)
        )
        bwd = sanitize.assert_owned(
            backward_bfs(self.graph, source, counter=counter)
        )
        ecc = int(fwd.max()) if self.num_vertices else 0
        return ecc, fwd, bwd

    def sweep_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[Optional[float], np.ndarray]:
        # This back-end promises owned vectors (each backward BFS
        # allocates); assert_owned enforces the promise at the boundary.
        return None, sanitize.assert_owned(
            backward_bfs(self.graph, source, counter=counter)
        )

    def disconnected_error(self) -> DisconnectedGraphError:
        return DisconnectedGraphError(
            2, "directed graph is not strongly connected"
        )

    def gap_cap(self) -> float:
        # Any forward eccentricity of an SCC is < n.
        return float(self.num_vertices)
