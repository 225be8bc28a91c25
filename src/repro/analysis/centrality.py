"""Other centrality measures (paper Section 6, "Other Graph Centrality
Measures").

Eccentricity centrality is one of a family; the related work the paper
cites also uses:

* **closeness centrality** (Okamoto et al. [26]) — the inverse of the
  sum of distances to all other vertices;
* **betweenness centrality** (Newman [25]) — the fraction of shortest
  paths passing through a vertex (computed with Brandes' algorithm);
* **degree centrality** — the normalised degree.

Having them side by side lets applications compare eccentricity-based
rankings against the alternatives (e.g. the facility-placement example),
and lets us test the Section 7.4 intuition that the highest-degree
vertex approximates the eccentricity center.

All functions operate on connected components (vertices in other
components contribute nothing) and return ``float64`` arrays of length
``n``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.batch import distance_rows
from repro.graph.traversal import TraversalCounter

__all__ = [
    "degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "eccentricity_centrality",
]


def degree_centrality(graph: Graph) -> np.ndarray:
    """Degree divided by ``n - 1`` (1.0 = connected to everyone)."""
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.float64)
    return graph.degrees.astype(np.float64) / (n - 1)


def closeness_centrality(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Classic closeness: ``(reachable - 1) / sum of distances``, scaled
    by the reachable fraction (the standard disconnected-graph
    correction), computed with MS-BFS batches.
    """
    n = graph.num_vertices
    closeness = np.zeros(n, dtype=np.float64)
    if n <= 1:
        return closeness
    batch = 64
    for start in range(0, n, batch):
        sources = np.arange(start, min(start + batch, n))
        dist = distance_rows(graph, sources, counter=counter)
        reachable = dist >= 0
        totals = np.where(reachable, dist, 0).sum(axis=1)
        counts = reachable.sum(axis=1) - 1  # exclude the source itself
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.where(totals > 0, counts / totals, 0.0)
        closeness[sources] = raw * (counts / (n - 1))
    return closeness


def betweenness_centrality(
    graph: Graph,
    normalized: bool = True,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Exact betweenness centrality (Brandes 2001, unweighted).

    ``O(n m)`` — use on graphs of the library's benchmark scale.
    """
    n = graph.num_vertices
    betweenness = np.zeros(n, dtype=np.float64)
    indptr, indices = graph.indptr, graph.indices
    for s in range(n):
        # single-source shortest-path DAG
        sigma = np.zeros(n, dtype=np.float64)  # path counts
        dist = np.full(n, -1, dtype=np.int64)
        sigma[s] = 1.0
        dist[s] = 0
        order = []  # vertices in non-decreasing distance
        queue = deque([s])
        edges = 0
        while queue:
            u = queue.popleft()
            order.append(u)
            for pos in range(indptr[u], indptr[u + 1]):
                edges += 1
                w = int(indices[pos])
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
        # dependency accumulation, reverse order
        delta = np.zeros(n, dtype=np.float64)
        for u in reversed(order):
            for pos in range(indptr[u], indptr[u + 1]):
                w = int(indices[pos])
                if dist[w] == dist[u] + 1 and sigma[w] > 0:
                    delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if u != s:
                betweenness[u] += delta[u]
        if counter is not None:
            counter.record(edges, len(order), label=f"brandes:{s}")
    betweenness /= 2.0  # undirected: each pair counted twice
    if normalized and n > 2:
        betweenness /= (n - 1) * (n - 2) / 2.0
    return betweenness


def eccentricity_centrality(
    eccentricities: np.ndarray,
) -> np.ndarray:
    """``1 / ecc(v)`` — the centrality reading of the paper's measure.

    Takes a precomputed eccentricity array (from IFECC), so the caller
    controls the algorithm and cost.
    """
    ecc = np.asarray(eccentricities, dtype=np.float64)
    if np.any(ecc < 0):
        raise InvalidParameterError("eccentricities must be non-negative")
    out = np.zeros_like(ecc)
    positive = ecc > 0
    out[positive] = 1.0 / ecc[positive]
    return out
