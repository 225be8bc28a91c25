"""Radius- and diameter-only computation with early termination.

The related work the paper builds on (Takes & Kosters 2011 [33]; Akiba,
Iwata, Kawata 2015 [2]) observed that when only the *extremes* of the
eccentricity distribution are needed — the radius and/or diameter —
the bound-based loop can stop long before every vertex's bounds meet:

* the **diameter** is certified once ``max(lower) == max(upper)`` over
  all vertices — no unresolved vertex can exceed the best eccentricity
  already witnessed;
* the **radius** is certified once some vertex's *exact* eccentricity
  is ``<= min(lower)`` over all vertices — no vertex can beat it.

Both rules are statements about Lemma 3.1 bounds, not about BFS, so the
driver is written against the :class:`repro.core.oracles.DistanceOracle`
protocol: :func:`oracle_radius_and_diameter` certifies the extremes of
any metric back-end (weighted distances via
:func:`repro.weighted.eccentricity.weighted_radius_and_diameter`,
directed reachability via
:func:`repro.directed.eccentricity.directed_radius_and_diameter`), while
:func:`radius_and_diameter` keeps the historical unweighted signature —
bit-identical to the pre-unification implementation.

On small-world graphs this typically needs a small constant number of
traversals — the mode SNAP's diameter feature would call after the
Section 7.5 case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.bounds import BoundState
from repro.core.framework import bound_and_select
from repro.core.oracles import BFSOracle, DistanceOracle, _reference_probe
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = ["ExtremesResult", "radius_and_diameter", "oracle_radius_and_diameter"]


@dataclass(frozen=True)
class ExtremesResult:
    """Certified radius and diameter of a (strongly) connected graph.

    Attributes
    ----------
    radius / diameter:
        The exact values — python ``int`` for hop metrics, ``float``
        for weighted ones (certified within the oracle's tolerance).
    center_vertex:
        A vertex attaining the radius.
    peripheral_vertex:
        A vertex attaining the diameter.
    num_bfs:
        Traversals spent (including the reference probe; a directed
        probe counts its forward + backward pair as two).
    elapsed_seconds:
        Wall time.
    """

    radius: float
    diameter: float
    center_vertex: int
    peripheral_vertex: int
    num_bfs: int
    elapsed_seconds: float


def oracle_radius_and_diameter(
    oracle: DistanceOracle,
    counter: Optional[TraversalCounter] = None,
) -> ExtremesResult:
    """Certified radius and diameter without the full ED, any metric.

    Alternates two source heuristics until both extremes are certified:

    * *periphery probe* — the unresolved vertex of largest upper bound
      (its probe can only raise ``max(lower)`` or prove the upper bounds
      slack), seeded by the reference's FFO front;
    * *center probe* — the unresolved vertex of smallest lower bound
      (its exact eccentricity is the best radius candidate).

    The probes run on :func:`repro.core.framework.bound_and_select`,
    stopped as soon as both certificates hold.  Every probe is a
    :meth:`DistanceOracle.source_probe` — the full Lemma 3.1 package,
    so asymmetric metrics pay a forward + backward pair per probed
    vertex.
    """
    n = oracle.num_vertices
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    counter = counter if counter is not None else TraversalCounter()
    watch = Stopwatch()

    reference = int(oracle.select_references("degree", 1, 0)[0])
    ffo, dist_into = _reference_probe(oracle, reference, counter)
    bounds = BoundState(n, dtype=oracle.dtype, tolerance=oracle.tolerance)
    bounds.set_exact(reference, ffo.eccentricity)
    bounds.apply_lemma31(dist_into, ffo.distances, ffo.eccentricity)

    ffo_cursor = 0
    pick_periphery = True
    dia_done = False

    def certified(bounds: BoundState, exact_ecc: Dict[int, float]) -> bool:
        nonlocal dia_done
        dia_done = bool(
            bounds.bounds_met(
                bounds.lower.max().item(), bounds.upper.max().item()
            )
        )
        return dia_done and bool(
            bounds.bounds_met(
                bounds.lower.min().item(), min(exact_ecc.values())
            )
        )

    def pick(bounds: BoundState, unresolved: np.ndarray) -> int:
        nonlocal ffo_cursor, pick_periphery
        periphery = pick_periphery and not dia_done
        pick_periphery = not pick_periphery
        if not periphery:
            return int(unresolved[np.argmin(bounds.lower[unresolved])])
        # Prefer the FFO front (far vertices realise the diameter);
        # fall back to the largest upper bound.
        while ffo_cursor < len(ffo.order):
            candidate = int(ffo.order[ffo_cursor])
            ffo_cursor += 1
            if not bool(
                bounds.bounds_met(
                    bounds.lower[candidate], bounds.upper[candidate]
                )
            ):
                return candidate
        return int(unresolved[np.argmax(bounds.upper[unresolved])])

    exact_ecc = bound_and_select(
        oracle,
        bounds,
        pick,
        counter,
        probed={reference: ffo.eccentricity},
        stop=certified,
    )

    dia = bounds.lower.max().item()
    rad_vertex = min(exact_ecc, key=exact_ecc.get)  # type: ignore[arg-type]
    return ExtremesResult(
        radius=exact_ecc[rad_vertex],
        diameter=dia,
        center_vertex=int(rad_vertex),
        peripheral_vertex=int(np.argmax(bounds.lower)),
        num_bfs=counter.bfs_runs,
        elapsed_seconds=watch.elapsed(),
    )


def radius_and_diameter(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
) -> ExtremesResult:
    """Certified radius and diameter of an unweighted connected graph.

    The historical entry point, now a :class:`BFSOracle` instantiation of
    :func:`oracle_radius_and_diameter` (bit-identical results and BFS
    counts).
    """
    return oracle_radius_and_diameter(BFSOracle(graph), counter=counter)
