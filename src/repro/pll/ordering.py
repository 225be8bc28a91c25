"""Vertex orderings for pruned landmark labeling.

PLL's pruning power depends on processing "central" vertices first: a
high-ranked hub intercepts many shortest paths, so later BFS runs prune
early.  Akiba et al. (SIGMOD'13) found degree ordering to be a simple,
strong choice on small-world networks; we also offer a random ordering as
a worst-case ablation and a double-sweep-closeness hybrid.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import Graph, _by_degree
from repro.graph.traversal import bfs_distances

__all__ = ["degree_order", "random_order", "closeness_sketch_order", "get_order"]


def degree_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """Vertices by descending degree (ties: ascending id) — the default."""
    return _by_degree(graph.degrees, graph.num_vertices)


def random_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """Uniformly random permutation (ablation baseline)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_vertices).astype(np.int32)


def closeness_sketch_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """Order by estimated closeness from a handful of BFS samples.

    Runs BFS from ``min(8, n)`` random vertices and ranks vertices by the
    (negated) sum of sampled distances — an inexpensive centrality sketch
    that sometimes beats raw degree on meshes and road-like graphs.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int32)
    rng = np.random.default_rng(seed)
    samples = rng.choice(n, size=min(8, n), replace=False)
    total = np.zeros(n, dtype=np.int64)
    for s in samples:
        dist = bfs_distances(graph, int(s))
        # Unreachable pairs count as a large-but-finite penalty.
        total += np.where(dist >= 0, dist, n).astype(np.int64)
    return np.lexsort((np.arange(n), -graph.degrees, total)).astype(np.int32)


_ORDERS = {
    "degree": degree_order,
    "random": random_order,
    "closeness": closeness_sketch_order,
}


def get_order(name: str) -> Callable[..., np.ndarray]:
    """Look up an ordering function by name."""
    try:
        return _ORDERS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown PLL ordering {name!r}; choose from {sorted(_ORDERS)}"
        ) from None
