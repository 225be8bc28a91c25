"""Probe numbers (Definition 4.1) — the measure motivating IFECC.

For a reference node ``z`` and the ``i``-th node ``v_i`` of its FFO
``L^z``, the probe number ``PN^z(v_i)`` counts how many vertices ``v``
(with reference ``z``) queried the distance ``dist(v, v_i)`` during
PLLECC's probing before their bounds closed.  Lemma 4.3 shows the probe
number is non-increasing along the FFO — which is why only the FFO *front*
matters and the all-pair index is an overkill.

PLLECC's probing loop (Algorithm 1, lines 6–14) is written once, in
:func:`_probe_vertex`, which reads distances through a lookup:
:func:`repro.baselines.pllecc.pllecc_eccentricities` queries its PLL
index, and :func:`probe_numbers` replays it with BFS-supplied distances,
producing the exact probe numbers of Table 2 for any graph small enough
to afford |V| BFS runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ffo import FarthestFirstOrder, compute_ffos
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter, bfs_distances

__all__ = ["ProbeProfile", "probe_numbers"]


@dataclass(frozen=True)
class ProbeProfile:
    """Probe numbers of one reference node.

    Attributes
    ----------
    ffo:
        The reference's farthest-first order.
    counts:
        ``counts[i] = PN^z(v_i)`` aligned with ``ffo.order``.
    territory_size:
        Number of vertices whose reference is this node.
    """

    ffo: FarthestFirstOrder
    counts: np.ndarray
    territory_size: int

    def is_monotone(self) -> bool:
        """Lemma 4.3: probe numbers never increase along the FFO."""
        return bool(np.all(np.diff(self.counts) <= 0))


def _probe_vertex(
    ffo: FarthestFirstOrder, v: int, distance: Callable[[int], int]
) -> Tuple[int, int, int]:
    """Algorithm 1, lines 6–14, for a vertex ``v`` of ``ffo``'s territory.

    Seeds ``v``'s bounds from its reference by Lemma 3.1, then probes
    the FFO front to back: each node ``u`` raises the lower bound to
    ``distance(u)`` (= ``dist(v, u)``), and Lemma 3.3 caps the upper
    bound by the unprobed tail, until the bounds meet.  Returns
    ``(lower, upper, probes)``; the probed nodes are FFO ranks
    ``0 .. probes - 1``.
    """
    dist_vz = int(ffo.distances[v])
    ecc_z = int(ffo.eccentricity)
    lo = max(dist_vz, ecc_z - dist_vz)
    hi = dist_vz + ecc_z
    probes = 0
    for node in ffo.order:
        if lo == hi:
            break
        probes += 1
        lo = max(lo, int(distance(int(node))))
        tail = int(ffo.distance_of_rank(probes))
        hi = min(hi, max(lo, tail + dist_vz))
    return lo, hi, probes


def probe_numbers(
    graph: Graph,
    references: Sequence[int],
    counter: Optional[TraversalCounter] = None,
) -> List[ProbeProfile]:
    """Replay PLLECC's probing and count probes per FFO position.

    Runs |V| BFS traversals (one per probing vertex) to supply the
    distances PLLECC would read from its index, so use on small graphs
    only (the Table 2 reproduction and unit tests).
    """
    refs = [int(z) for z in references]
    if len(refs) == 0:
        raise InvalidParameterError("at least one reference node required")
    ffos = dict(zip(refs, compute_ffos(graph, refs, counter=counter)))
    counts = {z: np.zeros(len(ffos[z].order), dtype=np.int64) for z in refs}
    territory_sizes = {z: 0 for z in refs}

    ref_dists = np.stack([ffos[z].distances for z in refs])
    for v in range(graph.num_vertices):
        if v in refs:
            continue
        z = refs[int(np.argmin(ref_dists[:, v]))]
        territory_sizes[z] += 1
        ffo = ffos[z]
        dist_v = bfs_distances(graph, v, counter=counter)
        probes = _probe_vertex(ffo, v, dist_v.__getitem__)[2]
        counts[z][:probes] += 1
    return [
        ProbeProfile(
            ffo=ffos[z],
            counts=counts[z],
            territory_size=territory_sizes[z],
        )
        for z in refs
    ]
