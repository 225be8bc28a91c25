"""Shared graph-building helpers importable from any test module."""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """A random connected graph: random spanning tree + extra edges.

    The tree guarantees connectivity; the extra edges add cycles.  Used
    by unit tests and hypothesis strategies alike.
    """
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_vertices=n)
    for v in range(1, n):
        builder.add_edge(v, int(rng.integers(0, v)))
    for _ in range(extra_edges):
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n))
        if u != w:
            builder.add_edge(u, w)
    return builder.build()


def heap_dijkstra(graph, source: int):
    """Reference binary-heap Dijkstra with lazy deletion.

    Returns ``(dist, edges_scanned, vertices_visited)``: the distances
    (``inf`` = unreachable), the arcs of every settled vertex counted
    once, and the number of settled (reached) vertices.  A test-only
    oracle for :func:`repro.weighted.dijkstra.dijkstra_distances`, which
    must match it bit for bit.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    edges_scanned = visited = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        visited += 1
        for pos in range(indptr[u], indptr[u + 1]):
            edges_scanned += 1
            w = int(indices[pos])
            nd = d + float(weights[pos])
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist, edges_scanned, visited
