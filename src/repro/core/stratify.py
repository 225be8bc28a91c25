"""Graph stratification and the farthest sets F1 / F2 (Section 5).

Fixing a reference node ``z``, the graph splits into layers
``S_i^z = {v : dist(v, z) = i}`` (Definition 5.1).  The theory of
Section 5 tripartites the layers:

* ``F1 = {v : dist(v, z) > ecc(z) / 3}``  — the "farthest 2/3" set;
* ``F2 = {v : dist(v, z) > 2 ecc(z) / 3}`` — the "farthest 1/3" set.

Theorem 5.5: BFS from every node of ``F1`` determines the *exact* ED —
for ``v`` outside ``F1``, some farthest node of ``v`` lies inside ``F1``.

Theorem 5.6: BFS from every node of ``F2`` yields the exact ``ecc`` inside
``F2`` and, outside it, the estimator

    ecc~(v) = max(dist_max(v, F2), dist(v, z) + ecc(z) / 4)

with guarantee ``7/12 <= ecc~(v) / ecc(v) <= 3/2``.

This module computes the stratification and the ``|F1|``/``|F2|``
statistics of Figure 12.  The two theorem-driven algorithms are test
oracles for IFECC (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    eccentricity_and_distances,
)

__all__ = [
    "Stratification",
    "stratify",
]


@dataclass(frozen=True)
class Stratification:
    """Layer structure of a graph around a reference node ``z``.

    Attributes
    ----------
    reference:
        The node ``z``.
    distances:
        Distance vector from ``z``.
    eccentricity:
        ``ecc(z)`` (the number of non-empty layers minus one).
    """

    reference: int
    distances: np.ndarray
    eccentricity: int

    def layer(self, i: int) -> np.ndarray:
        """Vertex ids of layer ``S_i^z`` (Definition 5.1)."""
        return np.flatnonzero(self.distances == i).astype(np.int32)

    def layer_sizes(self) -> np.ndarray:
        """``sizes[i] = |S_i^z|`` for ``i = 0 .. ecc(z)``."""
        reachable = self.distances[self.distances >= 0]
        return np.bincount(
            reachable.astype(np.int64), minlength=self.eccentricity + 1
        )

    @property
    def f1(self) -> np.ndarray:
        """The farthest (2/3) set: ``dist(v, z) > ecc(z) / 3``.

        The threshold is evaluated exactly with integer arithmetic
        (``3 * dist > ecc``) to avoid float edge cases.
        """
        return np.flatnonzero(
            3 * self.distances.astype(np.int64) > self.eccentricity
        ).astype(np.int32)

    @property
    def f2(self) -> np.ndarray:
        """The farthest (1/3) set: ``dist(v, z) > 2 ecc(z) / 3``."""
        return np.flatnonzero(
            3 * self.distances.astype(np.int64) > 2 * self.eccentricity
        ).astype(np.int32)

    def sizes(self) -> Dict[str, int]:
        """The Figure 12 statistics."""
        return {"n": len(self.distances), "F1": len(self.f1), "F2": len(self.f2)}


def stratify(
    graph: Graph,
    reference: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> Stratification:
    """Stratify ``graph`` around ``reference`` (default: highest degree).

    Requires a connected graph; Section 5's analysis holds for any
    reference choice, Section 7.4 recommends the highest-degree node.
    """
    if graph.num_vertices == 0:
        raise InvalidParameterError("cannot stratify the empty graph")
    if reference is None:
        reference = graph.max_degree_vertex()
    ecc, dist = eccentricity_and_distances(graph, reference, counter=counter)
    if np.any(dist == UNREACHED):
        from repro.graph.components import connected_components

        raise DisconnectedGraphError(
            connected_components(graph).num_components
        )
    return Stratification(
        reference=int(reference), distances=dist, eccentricity=ecc
    )
