"""Shortest-path reconstruction on top of the BFS engine.

Eccentricity analyses often need a *witness path* — e.g. the actual
diameter path for inspection, or the route from a facility at the
network center to its worst-served vertex.  This module derives BFS
parents and witness paths from the distance rows of the (hot)
distance-only engine in :mod:`repro.graph.engine`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.engine import engine_for
from repro.graph.traversal import TraversalCounter

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
    is produced (deterministic).  One engine run gives the distances;
    a vertex's parents are then exactly its neighbors one level closer,
    read off the arcs in one vectorised pass.

    :dtype dist: int32
    :dtype parent: int64
    :dtype child: int64
    """
    dist = engine_for(graph).run(source, counter=counter).copy()
    n = graph.num_vertices
    parent = np.full(n, -1, dtype=np.int64)
    # Arc child -> u, grouped by child in CSR order; u is a parent of
    # child exactly when it sits one level closer to the source.
    child = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    tree = dist[graph.indices] == dist[child] - 1
    child = child[tree]
    if len(child):
        starts = np.flatnonzero(np.r_[True, child[1:] != child[:-1]])
        parent[child[starts]] = np.minimum.reduceat(
            graph.indices[tree], starts
        )
    parent[source] = source
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
