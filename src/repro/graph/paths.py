"""Shortest-path reconstruction on top of the BFS engine.

Eccentricity analyses often need a *witness path* — e.g. the actual
diameter path for inspection, or the route from a facility at the
network center to its worst-served vertex.  This module adds BFS parent
tracking and path reconstruction without touching the (hot) distance-only
traversal in :mod:`repro.graph.traversal`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import InvalidVertexError
from repro.graph.csr import Graph
from repro.graph.traversal import UNREACHED, TraversalCounter, _expand_frontier

__all__ = ["bfs_parents", "diameter_path"]


def bfs_parents(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and BFS-tree parents from ``source``.

    Returns ``(dist, parent)`` with ``parent[source] == source`` and
    ``parent[v] == -1`` for unreachable ``v``.  Among the multiple
    shortest-path trees, the one with the smallest-id parent per vertex
    is produced (deterministic).

    :dtype dist: int32
    :dtype parent: int64
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise InvalidVertexError(source, n)
    dist = np.full(n, UNREACHED, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    edges = 0
    while frontier.size:
        neighbors = _expand_frontier(graph, frontier)
        edges += len(neighbors)
        if len(neighbors) == 0:
            break
        indptr = graph.indptr
        counts = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
        parents_expanded = np.repeat(frontier, counts)
        unseen = dist[neighbors] == UNREACHED
        fresh = neighbors[unseen]
        fresh_parent = parents_expanded[unseen]
        if len(fresh) == 0:
            break
        level += 1
        # keep the smallest parent id per newly discovered vertex
        order = np.lexsort((fresh_parent, fresh))
        uniq, first = np.unique(fresh[order], return_index=True)
        dist[uniq] = level
        parent[uniq] = fresh_parent[order[first]]
        frontier = uniq.astype(np.int64)
    if counter is not None:
        counter.record(edges, int(np.count_nonzero(dist != UNREACHED)))
    return dist, parent


def diameter_path(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
) -> List[int]:
    """A concrete path realising the graph's diameter.

    Uses :func:`repro.core.extremes.radius_and_diameter` to find a
    peripheral vertex, then one more BFS to reach its farthest vertex.
    """
    from repro.core.extremes import radius_and_diameter

    extremes = radius_and_diameter(graph, counter=counter)
    start = extremes.peripheral_vertex
    dist, parent = bfs_parents(graph, start, counter=counter)
    end = int(np.argmax(dist))
    path = [end]
    while path[-1] != start:
        path.append(int(parent[path[-1]]))
    path.reverse()
    assert len(path) - 1 == extremes.diameter
    return path
