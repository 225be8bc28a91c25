"""Farthest-First Node Orders (FFO) — Section 3.2.

The FFO of a node ``z`` is the reverse-BFS order
``L^z = <v_1, v_2, ..., v_n = z>`` with
``dist(z, v_1) >= dist(z, v_2) >= ... >= dist(z, v_n) = 0``.

PLLECC probes distances along a vertex's (approximate) FFO so bounds close
quickly; IFECC turns the same order into the *BFS source priority order* of
the BFS-framework.  Ties are broken by ascending vertex id so every run is
reproducible (the paper leaves tie order unspecified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.batch import distance_rows
from repro.graph.csr import Graph
from repro.graph.engine import engine_for
from repro.graph.traversal import TraversalCounter
from repro.sentinels import unreached_mask

__all__ = [
    "FarthestFirstOrder",
    "farthest_first_order",
    "compute_ffo",
    "compute_ffos",
]


@dataclass(frozen=True)
class FarthestFirstOrder:
    """The FFO of one reference node.

    The order is metric-generic: ``distances`` may be ``int32`` hop
    counts or ``float64`` weighted distances; eccentricity values keep
    the metric's numeric type (python ``int`` for hop metrics, ``float``
    for weighted ones).

    Attributes
    ----------
    source:
        The node ``z`` the order belongs to.
    order:
        ``int32`` vertex ids sorted by non-increasing distance from ``z``
        (unreachable vertices are excluded; ``z`` itself is last).
    distances:
        Full distance vector from ``z`` (the metric's unreached sentinel
        marks other components).
    eccentricity:
        ``ecc(z)``, i.e. ``distances[order[0]]``.
    """

    source: int
    order: np.ndarray
    distances: np.ndarray
    eccentricity: float

    def __len__(self) -> int:
        return len(self.order)

    def distance_of_rank(self, rank: int) -> float:
        """``dist(v_rank, z)`` for 0-based ``rank``; 0 past the end.

        The "past the end" convention feeds Lemma 3.3: once every node has
        been probed the unprobed tail contributes nothing.
        """
        if rank >= len(self.order):
            return 0
        return self.distances[self.order[rank]].item()

    def prefix(self, count: int) -> np.ndarray:
        """The first ``count`` nodes of the order (the FFO "front")."""
        return self.order[:count]


def farthest_first_order(
    distances: np.ndarray, source: int
) -> FarthestFirstOrder:
    """Build a :class:`FarthestFirstOrder` from a precomputed distance
    vector (ties broken by ascending id).

    Works for any metric: reachability is decided by the dtype's
    sentinel (``-1`` for hop counts, ``inf`` for weighted distances) and
    the sort key stays in the metric's own numeric domain.

    :dtype order: int32
    """
    reachable = np.flatnonzero(~unreached_mask(distances))
    key = distances[reachable]
    if not np.issubdtype(key.dtype, np.floating):
        # Negating int32 hop counts in int64 avoids overflow at the edge.
        key = key.astype(np.int64)
    # Stable sort on ascending id, keyed by descending distance.
    order = reachable[np.argsort(-key, kind="stable")].astype(np.int32)
    ecc = distances[order[0]].item() if len(order) else 0
    return FarthestFirstOrder(
        source=source,
        order=order,
        distances=distances,
        eccentricity=ecc,
    )


def compute_ffo(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> FarthestFirstOrder:
    """Run one BFS from ``source`` and return its FFO (Algorithm 2, line 4).

    The FFO retains the distance vector, so it is copied out of the
    engine's pooled buffer.
    """
    distances = engine_for(graph).run(source, counter=counter).copy()
    return farthest_first_order(distances, source)


def compute_ffos(
    graph: Graph,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
) -> List[FarthestFirstOrder]:
    """FFOs for many references from one batched distance sweep.

    Equivalent to ``[compute_ffo(graph, z) for z in sources]`` but the
    traversals share bit-parallel MS-BFS lane sweeps
    (:func:`repro.graph.batch.distance_rows`) — the multi-
    reference seeding step of Algorithm 2 pays one sweep per lane group
    instead of one BFS per reference.  Each FFO owns its distance row.
    """
    src = np.ascontiguousarray(sources, dtype=np.int64)
    rows = distance_rows(graph, src, counter=counter)
    return [
        farthest_first_order(rows[i], int(src[i]))
        for i in range(len(src))
    ]
