"""Pruned Landmark Labeling (PLL) — Akiba, Iwata, Yoshida, SIGMOD 2013.

PLL is the all-pair-shortest-distance index PLLECC builds in its first
stage (Algorithm 1, line 1) and the spatial/temporal bottleneck the paper
eliminates.  We implement it faithfully:

* Vertices are ranked by an ordering (degree by default).
* For the ``k``-th ranked vertex ``v_k``, a *pruned* BFS labels every
  vertex ``u`` it reaches with the entry ``(k, dist(v_k, u))`` — unless
  the labels accumulated so far already certify
  ``query(v_k, u) <= dist(v_k, u)``, in which case the search is pruned
  at ``u``.
* A distance query ``query(s, t)`` is the minimum of
  ``d(s, h) + d(h, t)`` over hubs ``h`` common to both labels; the
  2-hop-cover property guarantees this equals ``dist(s, t)``.

The index reports its exact memory footprint
(:meth:`PLLIndex.size_bytes`), which the Figure 10 reproduction compares
against the ``O(m + n)`` footprint of IFECC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import (
    BudgetExhaustedError,
    InvalidParameterError,
    InvalidVertexError,
)
from repro.graph.csr import Graph
from repro.obs.trace import Stopwatch
from repro.pll.ordering import get_order

__all__ = ["PLLIndex", "build_pll_index"]

_INF = np.int32(2**30)


@dataclass
class _LabelStore:
    """Per-vertex hub labels, frozen to numpy arrays after construction."""

    hubs: List[np.ndarray]
    dists: List[np.ndarray]


class PLLIndex:
    """A queryable 2-hop distance index.

    Construct with :func:`build_pll_index`; direct instantiation takes
    already-built label arrays.
    """

    def __init__(
        self,
        hubs: List[np.ndarray],
        dists: List[np.ndarray],
        construction_seconds: float = 0.0,
        ordering: str = "degree",
    ) -> None:
        if len(hubs) != len(dists):
            raise InvalidParameterError("hubs and dists length mismatch")
        self._hubs = hubs
        self._dists = dists
        self.construction_seconds = construction_seconds
        self.ordering = ordering

    @property
    def num_vertices(self) -> int:
        return len(self._hubs)

    def label_of(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (hub-ranks, distances) label arrays of vertex ``v``."""
        self._check_vertex(v)
        return self._hubs[v], self._dists[v]

    def num_label_entries(self) -> int:
        """Total number of (hub, distance) pairs across all vertices."""
        return sum(len(h) for h in self._hubs)

    def average_label_size(self) -> float:
        """Mean label entries per vertex — PLL's key size statistic."""
        n = self.num_vertices
        return self.num_label_entries() / n if n else 0.0

    def size_bytes(self) -> int:
        """Exact memory of the label arrays (Figure 10's index size)."""
        return sum(h.nbytes + d.nbytes for h, d in zip(self._hubs, self._dists))

    def query(self, s: int, t: int) -> int:
        """Exact ``dist(s, t)``; returns -1 when disconnected."""
        self._check_vertex(s)
        self._check_vertex(t)
        if s == t:
            return 0
        hs, ds = self._hubs[s], self._dists[s]
        ht, dt = self._hubs[t], self._dists[t]
        # Hub arrays are sorted by rank: intersect via searchsorted.
        if len(hs) == 0 or len(ht) == 0:
            return -1
        pos = np.searchsorted(ht, hs)
        pos_clipped = np.minimum(pos, len(ht) - 1)
        match = ht[pos_clipped] == hs
        if not match.any():
            return -1
        total = ds[match].astype(np.int64) + dt[pos_clipped[match]].astype(
            np.int64
        )
        return int(total.min())

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise InvalidVertexError(v, self.num_vertices)

    def __repr__(self) -> str:
        return (
            f"PLLIndex(n={self.num_vertices}, "
            f"entries={self.num_label_entries()}, "
            f"bytes={self.size_bytes()})"
        )


def build_pll_index(
    graph: Graph,
    ordering: str = "degree",
    seed: int = 0,
    time_budget: Optional[float] = None,
) -> PLLIndex:
    """Construct a PLL index over ``graph`` (PLLECC-PLL stage).

    Complexity is output-sensitive: each pruned BFS only expands vertices
    whose label actually grows.  On small-world graphs the average label
    stays polylogarithmic; on paths/cycles it degrades toward ``O(n)``
    per vertex — exactly the spatial blow-up the paper's Figure 10 shows.

    ``time_budget`` (seconds) aborts construction with
    :class:`repro.errors.BudgetExhaustedError` — the benchmark harness's
    analogue of the paper's 24-hour cut-off, which PLLECC exceeds on the
    billion-edge graphs.

    :dtype rank: int32
    :dtype landmark_hub_dist: int32
    :dtype dist_seen: int32
    """
    order = get_order(ordering)(graph, seed)
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)

    hub_lists: List[List[int]] = [[] for _ in range(n)]
    dist_lists: List[List[int]] = [[] for _ in range(n)]
    # tentative[u]: best query(v_k, u) using labels built so far; reset
    # per landmark via the touched list (standard PLL trick).
    watch = Stopwatch()
    indptr, indices = graph.indptr, graph.indices

    # Distances from the current landmark to hub h, indexed by hub rank —
    # lets the prune test run in O(|label(u)|) without a hash lookup.
    landmark_hub_dist = np.full(n, _INF, dtype=np.int32)

    dist_seen = np.full(n, _INF, dtype=np.int32)
    for k in range(n):
        if (
            time_budget is not None
            and k % 64 == 0
            and watch.elapsed() > time_budget
        ):
            raise BudgetExhaustedError(
                time_budget,
                f"PLL construction exceeded its {time_budget:.0f}s budget "
                f"after {k}/{n} landmarks",
            )
        root = int(order[k])
        root_hubs = hub_lists[root]
        root_dists = dist_lists[root]
        for h, d in zip(root_hubs, root_dists):
            landmark_hub_dist[h] = d
        landmark_hub_dist[k] = 0

        queue = deque([(root, 0)])
        dist_seen[root] = 0
        touched = [root]
        while queue:
            u, d = queue.popleft()
            # Prune: existing labels already certify a distance <= d.
            hu = hub_lists[u]
            du = dist_lists[u]
            pruned = False
            for h, dh in zip(hu, du):
                via = landmark_hub_dist[h]
                if via != _INF and via + dh <= d:
                    pruned = True
                    break
            if pruned:
                continue
            hub_lists[u].append(k)
            dist_lists[u].append(d)
            for w in indices[indptr[u]: indptr[u + 1]]:
                w = int(w)
                if dist_seen[w] == _INF and rank[w] > k:
                    dist_seen[w] = d + 1
                    touched.append(w)
                    queue.append((w, d + 1))
        for v in touched:
            dist_seen[v] = _INF
        for h in root_hubs:
            landmark_hub_dist[h] = _INF
        landmark_hub_dist[k] = _INF

    hubs = [np.asarray(h, dtype=np.int32) for h in hub_lists]
    dists = [np.asarray(d, dtype=np.int32) for d in dist_lists]
    elapsed = watch.elapsed()
    return PLLIndex(
        hubs, dists, construction_seconds=elapsed, ordering=ordering
    )
