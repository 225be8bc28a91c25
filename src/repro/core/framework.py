"""The BFS-framework loop (Section 3.1), over any distance oracle.

Every bound-based ED algorithm the paper surveys fits the same loop:

1. initialise ``ecc_lower = 0``, ``ecc_upper = +inf`` for all vertices;
2. pick an unresolved source ``t`` by a priority rule;
3. probe ``t`` (:meth:`repro.core.oracles.DistanceOracle.source_probe`):
   the traversal yields ``ecc(t)`` exactly and Lemma 3.1 tightens every
   other vertex's bounds; repeat until all bounds have met (exact), a
   caller's stop predicate holds, or the budget runs out.

:func:`bound_and_select` is that loop.  A pick rule is a plain function
``(bounds, unresolved) -> vertex``; the rules with callers ship here:

* :func:`largest_gap` — Henderson's OPEX rule (largest upper-lower gap);
* :func:`takes_kosters` — Takes & Kosters' rule (alternate between the
  unresolved vertex of smallest lower bound and of largest upper bound,
  degree as tie-break), the BoundECC baseline;
* :func:`ffo_order` — IFECC's probe order without the Lemma 3.3 tail cap,
  the A2 ablation's "FFO only" variant.

The radius/diameter driver (:mod:`repro.core.extremes`) runs the same
loop with its own rule and a certification stop.  IFECC itself
(Algorithm 2, :class:`repro.core.solver.EccentricitySolver`) is not a
per-vertex rule: it sweeps territories in FFO order under the Lemma 3.3
cap and takes probes from lane batches.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core.bounds import BoundState
from repro.core.ffo import compute_ffo
from repro.core.oracles import BFSOracle, DistanceOracle
from repro.core.result import EccentricityResult
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = [
    "PickRule",
    "bound_and_select",
    "framework_eccentricities",
    "largest_gap",
    "takes_kosters",
    "ffo_order",
]

#: Step 2 of the framework: the next source among the ``unresolved``
#: vertex ids (never empty).
PickRule = Callable[[BoundState, np.ndarray], int]

#: A caller's early stop, given the bounds and the exact eccentricity
#: of every source probed so far.
StopRule = Callable[[BoundState, Dict[int, float]], bool]


def bound_and_select(
    oracle: DistanceOracle,
    bounds: BoundState,
    pick: PickRule,
    counter: TraversalCounter,
    probed: Optional[Dict[int, float]] = None,
    stop: Optional[StopRule] = None,
    max_bfs: Optional[int] = None,
) -> Dict[int, float]:
    """Pick, probe and tighten until the bounds meet, ``stop`` holds or
    ``counter`` has spent ``max_bfs`` traversals.

    Returns ``probed`` — the exact eccentricity of every probed source,
    in probe order — extended in place (a caller seeds it with probes
    it made itself, e.g. a reference).

    :mutates bounds: every probe pins its source and applies Lemma 3.1.
    """
    probed = {} if probed is None else probed
    while stop is None or not stop(bounds, probed):
        unresolved = np.flatnonzero(~bounds.resolved_mask())
        if len(unresolved) == 0 or (
            max_bfs is not None and counter.bfs_runs >= max_bfs
        ):
            break
        source = pick(bounds, unresolved)
        ecc, dist_from, dist_into = oracle.source_probe(
            source, counter=counter
        )
        bounds.set_exact(source, ecc)
        bounds.apply_lemma31(dist_into, dist_from, ecc)
        probed[source] = ecc
    return probed


def framework_eccentricities(
    graph: Graph,
    pick: PickRule,
    algorithm: str,
    max_bfs: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """ED of ``graph`` by :func:`bound_and_select` over BFS probes.

    Each component resolves on its own (Lemma 3.1 leaves unreached
    vertices untouched).  A run cut by ``max_bfs`` returns
    ``exact=False`` with the lower bounds as estimates.
    """
    if graph.num_vertices == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    counter = counter if counter is not None else TraversalCounter()
    watch = Stopwatch()
    bounds = BoundState(graph.num_vertices)
    bound_and_select(BFSOracle(graph), bounds, pick, counter, max_bfs=max_bfs)
    return EccentricityResult.from_bounds(
        bounds, algorithm, counter, watch.elapsed()
    )


def largest_gap(bounds: BoundState, unresolved: np.ndarray) -> int:
    """Henderson's rule: the vertex with the largest bound gap."""
    return int(unresolved[np.argmax(bounds.gap()[unresolved])])


def takes_kosters(degrees: np.ndarray) -> PickRule:
    """Takes & Kosters' rule (the BoundECC strategy).

    Alternates between the unresolved vertex with the smallest lower
    bound (candidate center, whose probe pulls upper bounds down) and
    the one with the largest upper bound (candidate periphery, whose
    probe pushes lower bounds up), starting with the former.  Ties are
    broken by larger degree, then by smaller id, as in the reference
    implementation.
    """
    small_lower = True

    def pick(bounds: BoundState, unresolved: np.ndarray) -> int:
        nonlocal small_lower
        if small_lower:
            key = bounds.lower[unresolved].astype(np.int64)
        else:
            key = -bounds.upper[unresolved].astype(np.int64)
        small_lower = not small_lower
        ranking = np.lexsort((unresolved, -degrees[unresolved], key))
        return int(unresolved[ranking[0]])

    return pick


def ffo_order(graph: Graph) -> PickRule:
    """IFECC's probe order as a pick rule, without the Lemma 3.3 cap.

    The highest-degree vertex ``z`` first, then the FFO of ``z``
    front-to-back, skipping resolved vertices; once the order is spent
    (only on disconnected graphs) the smallest unresolved id.  The BFS
    that builds the order is not counted: the framework probes ``z``
    first anyway.
    """
    z = graph.max_degree_vertex()
    order = compute_ffo(graph, z).order
    order = np.concatenate(([z], order[order != z])).astype(np.int64)
    cursor = 0

    def pick(bounds: BoundState, unresolved: np.ndarray) -> int:
        nonlocal cursor
        while cursor < len(order):
            v = int(order[cursor])
            cursor += 1
            if bounds.lower[v] != bounds.upper[v]:
                return v
        return int(unresolved[0])

    return pick
