"""Forward and backward BFS on directed graphs.

Both are copying wrappers over the shared kernels:
:func:`repro.graph.engine.engine_for` gives a digraph a forward engine
(out-arcs top-down, in-arcs bottom-up) and a backward one (the reverse
pair), direction-optimizing like the undirected engine; its batches
ride the same MS-BFS lanes (:mod:`repro.graph.batch`).

Also home of :class:`DirectedBFSOracle`, the asymmetric-metric back-end
of the generic solver: its reverse-distance hook is what lets
:class:`repro.core.solver.EccentricitySolver` run the paper's Algorithm
2 on digraphs, where ``dist(v, t) != dist(t, v)`` and a sweep probe is a
*backward* BFS (alone, or one lane of a backward MS-BFS sweep) that
yields no forward eccentricity.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.counters import TraversalCounter
from repro.errors import DisconnectedGraphError
from repro.graph.batch import ecc_batch, sweep_columns
from repro.graph.csr import _by_degree
from repro.graph.engine import engine_for
from repro.graph.msengine import LANE_WORD_BITS
from repro.sentinels import UNREACHED
from repro.directed.graph import DirectedGraph

__all__ = [
    "forward_bfs",
    "backward_bfs",
    "is_strongly_connected",
    "DirectedBFSOracle",
]


def forward_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances ``dist(source, v)`` along arc directions.

    A copy of the forward engine's pooled buffer; ``counter`` is
    credited with one run labelled ``fwd:<source>``.
    """
    return np.array(engine_for(graph).run(source, counter=counter))


def backward_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances ``dist(v, source)`` — i.e. along *reversed* arcs.

    A copy of the backward engine's pooled buffer; ``counter`` is
    credited with one run labelled ``bwd:<source>``.
    """
    engine = engine_for(graph, backward=True)
    return np.array(engine.run(source, counter=counter))


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
    * :meth:`sweep_batch` runs backward — one BFS, or up to 64 lanes of
      the backward MS-BFS engine — and returns no eccentricities:
      ``max_v dist(v, t)`` is the *backward* eccentricity, not the
      forward one being computed, so the solver skips the
      ``set_exact`` step for probed sweep sources.

    :meth:`ecc_all` sweeps its batch in this process
    (:func:`repro.graph.batch.ecc_batch`), as every probe does.
    """

    dtype = np.dtype(np.int32)
    tolerance = 0.0
    symmetric = False
    metric_name = "DirectedIFECC"
    trace_kind = "bfs-directed"
    sweep_lanes = LANE_WORD_BITS

    def __init__(self, graph: DirectedGraph) -> None:
        self.graph = graph
        self.num_vertices = graph.num_vertices

    def ecc_all(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Forward eccentricities for ``sources`` (default: all vertices).

        Raises :class:`DisconnectedGraphError` unless the graph is
        strongly connected — directed eccentricities are only finite
        there.  The check's two traversals are not credited to
        ``counter``.

        :dtype: int32
        """
        if not is_strongly_connected(self.graph):
            raise self.disconnected_error()
        if sources is None:
            sources = np.arange(self.num_vertices, dtype=np.int64)
        return ecc_batch(self.graph, sources, counter)

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        # The degree rule only, by out-degree.
        return _by_degree(self.graph.out_csr.degrees, count, strategy)

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

    def sweep_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward probes: ``(no eccentricities, dist(targets, sources))``.

        :dtype eccs: int32
        :dtype cols: int32
        """
        cols = sweep_columns(
            self.graph, sources, targets, counter, backward=True
        )[1]
        return np.empty(0, dtype=np.int32), cols

    def disconnected_error(self) -> DisconnectedGraphError:
        return DisconnectedGraphError(
            2, "directed graph is not strongly connected"
        )

    def gap_cap(self) -> float:
        # Any forward eccentricity of an SCC is < n.
        return float(self.num_vertices)
