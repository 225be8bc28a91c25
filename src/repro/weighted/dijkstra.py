"""Single-source shortest distances on weighted graphs (Dijkstra).

The weighted analogue of :func:`repro.graph.traversal.bfs_distances`:
a vectorised Δ-stepping kernel (Meyer and Sanders) with Δ = the graph's
maximum edge weight, which relaxes each distance bucket's arcs in numpy
CSR gathers rather than popping a heap one vertex at a time.  Its
distances are bit-identical to a heap Dijkstra's.  Distances are
``float64``; unreachable vertices get ``numpy.inf``.

:class:`DijkstraOracle` packages the traversal as a
:class:`repro.core.oracles.DistanceOracle`, which is how the
metric-generic :class:`repro.core.solver.EccentricitySolver` (and the
extremes driver) run the paper's Algorithm 2 over non-negative edge
weights.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.counters import TraversalCounter
from repro.errors import DisconnectedGraphError, InvalidVertexError
from repro.graph.csr import _by_degree
from repro.graph.engine import distinct_ids
from repro.weighted.graph import WeightedGraph

__all__ = [
    "dijkstra_distances",
    "weighted_eccentricity_and_distances",
    "DijkstraOracle",
]


def dijkstra_distances(
    graph: WeightedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances from ``source`` to every vertex (``inf`` = unreachable).

    Δ-stepping with Δ = the graph's maximum edge weight.  Each bucket
    takes the open (reached, unsettled) vertices whose tentative
    distance is at most ``min + Δ`` and relaxes their arcs in one CSR
    gather; vertices a round improves to within the bucket are relaxed
    again until no distance inside it improves, and then the whole
    bucket is settled.  Every vertex ends at the minimum over walks of
    the left-folded ``float64`` sums of its weights, as with a heap
    Dijkstra, so the distances are bit-identical to one.

    The counter (when given) records one traversal: ``edges_scanned``
    counts the arcs of each settled vertex once, ``edges_inspected``
    adds the in-bucket re-scans, ``vertices_visited`` counts the
    reached vertices and ``relaxations`` the improving candidates.

    :dtype dist: float64
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise InvalidVertexError(source, n)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degrees = graph.degrees
    delta = float(weights.max()) if len(weights) else 0.0
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    slot = np.empty(n, dtype=np.int64)
    open_ = np.array([source], dtype=np.int64)  # reached, in no bucket yet
    edges_inspected = relaxations = 0
    while open_.size:
        tentative = dist[open_]
        threshold = tentative.min() + delta
        # Test ``d > threshold`` (beyond the bucket), not ``d <=
        # threshold``: a NaN weight makes the threshold NaN, and then
        # every open vertex falls in the bucket rather than none (NaN
        # arcs never relax, as in a heap).
        beyond = tentative > threshold
        front = open_[~beyond]
        later = [open_[beyond]]
        while front.size:
            counts = degrees[front]
            csum = np.cumsum(counts)
            total = int(csum[-1])
            if total == 0:
                break
            edges_inspected += total
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                indptr[front] - (csum - counts), counts
            )
            targets = indices[positions]
            cand = np.repeat(dist[front], counts) + weights[positions]
            better = cand < dist[targets]
            targets, cand = targets[better], cand[better]
            relaxations += len(targets)
            np.minimum.at(dist, targets, cand)
            changed = distinct_ids(targets, slot)
            beyond = dist[changed] > threshold
            front = changed[~beyond]
            later.append(changed[beyond])
        # The bucket is settled; what it left beyond stays open unless
        # a later round pulled it into the bucket.
        pending = np.concatenate(later)
        open_ = distinct_ids(pending[dist[pending] > threshold], slot)
    if counter is not None:
        # Every reached vertex was settled once, its arcs scanned once.
        reached = np.isfinite(dist)
        counter.record(
            int(degrees[reached].sum()),
            int(np.count_nonzero(reached)),
            label=f"dijkstra:{source}",
            inspected=edges_inspected,
            relaxations=relaxations,
        )
    return dist


def weighted_eccentricity_and_distances(
    graph: WeightedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> Tuple[float, np.ndarray]:
    """Weighted eccentricity of ``source`` (within its component) plus
    the distance vector."""
    dist = dijkstra_distances(graph, source, counter=counter)
    finite = dist[np.isfinite(dist)]
    return (float(finite.max()) if len(finite) else 0.0), dist


class DijkstraOracle:
    """The non-negative edge-weight oracle (symmetric, ``float64``).

    One Dijkstra per probe; the distance metric is symmetric, so a
    single traversal yields both directions.  There is no lane kernel,
    so one sweep traversal carries one probe (``sweep_lanes = 1``).
    Bound comparisons use an absolute ``tolerance`` of ``1e-9``
    because distances are sums of ``float64`` weights; with
    integer-valued weights the comparisons are exact.
    """

    dtype = np.dtype(np.float64)
    tolerance = 1e-9
    symmetric = True
    metric_name = "IFECC-weighted"
    trace_kind = "dijkstra"
    sweep_lanes = 1

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.num_vertices = graph.num_vertices

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        # The paper-default degree rule only.
        return _by_degree(self.graph.degrees, count, strategy)

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        ecc, dist = weighted_eccentricity_and_distances(
            self.graph, source, counter=counter
        )
        dist = sanitize.assert_owned(dist)
        return ecc, dist, dist

    def sweep_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One Dijkstra per source, read at ``targets`` (see the protocol);
        several are credited as pending lanes, as a lane sweep's are.

        :dtype eccs: float64
        :dtype cols: float64
        """
        eccs = np.empty(len(sources), dtype=np.float64)
        cols = np.empty((len(sources), len(targets)), dtype=np.float64)
        work = TraversalCounter()
        for i, source in enumerate(sources):
            eccs[i], dist = weighted_eccentricity_and_distances(
                self.graph, int(source), counter=work
            )
            cols[i] = dist[targets]
        if counter is not None and len(sources) == 1:
            counter.merge(work)
        elif counter is not None:
            counter.record_sweep(
                work.edges_scanned,
                work.vertices_visited,
                work.edges_inspected,
                work.history,
                work.relaxations,
            )
        return eccs, cols

    def disconnected_error(self) -> DisconnectedGraphError:
        return DisconnectedGraphError(2, "weighted graph is disconnected")

    def gap_cap(self) -> float:
        # Any eccentricity is at most (n - 1) hops of the heaviest edge.
        max_weight = (
            float(self.graph.weights.max()) if len(self.graph.weights) else 0.0
        )
        return float(max(self.num_vertices - 1, 0)) * max_weight
