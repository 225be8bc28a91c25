"""Exact forward eccentricities of strongly connected directed graphs.

The forward eccentricity of ``v`` is ``ecc(v) = max_u dist(v, u)``
(distances along arc directions); the directed radius and diameter are
its min and max.  The triangle inequality gives directed analogues of
Lemma 3.1 — for a processed source ``t`` with known ``ecc(t)``:

* ``ecc(v) <= dist(v, t) + ecc(t)``          (needs ``dist(v, t)``,
  obtained from one *backward* BFS from ``t``), and
* ``ecc(v) >= ecc(t) - dist(t, v)``          (needs ``dist(t, v)``,
  from the *forward* BFS), and ``ecc(v) >= dist(v, t)``.

Both algorithms here run on the shared metric-generic machinery:
:func:`directed_ifecc_eccentricities` instantiates
:class:`repro.core.solver.EccentricitySolver` over
:class:`repro.directed.traversal.DirectedBFSOracle` (each sweep probe is
ONE backward BFS; the Lemma 3.3 tail cap closes parity-stuck vertices
wholesale), while :func:`directed_eccentricities` keeps the two-BFS
per-source bound-propagation scheme of Akiba, Iwata & Kawata (2015) as
the comparison baseline, now on :class:`repro.core.bounds.BoundState`
with the directed reverse-distance hook.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import BoundState
from repro.core.extremes import ExtremesResult, oracle_radius_and_diameter
from repro.core.result import EccentricityResult
from repro.core.solver import EccentricitySolver
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import DirectedBFSOracle
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch
from repro.sentinels import UNREACHED

__all__ = [
    "directed_eccentricities",
    "directed_ifecc_eccentricities",
    "naive_directed_eccentricities",
    "directed_radius_and_diameter",
    "directed_solver",
]


def naive_directed_eccentricities(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
    backend: str = "numpy",
    workers: Optional[int] = None,
) -> np.ndarray:
    """One forward BFS per vertex — the directed oracle.

    Requires strong connectivity (raises otherwise).  One
    :meth:`DirectedBFSOracle.ecc_all` call: ``backend``/``workers``
    choose its batch backend, with bit-identical output.
    """
    oracle = DirectedBFSOracle(graph, backend=backend, workers=workers)
    return oracle.ecc_all(counter=counter)


def directed_eccentricities(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Exact forward eccentricities with bound propagation.

    Sources are chosen by alternating the largest-upper-bound vertex
    (periphery probe) with the smallest-lower-bound vertex (center
    probe), each costing a forward + backward BFS pair.  Bound
    maintenance runs on :class:`BoundState` with the directed Lemma 3.1
    (the ``dist_from_t`` hook).
    """
    n = graph.num_vertices
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    counter = counter if counter is not None else TraversalCounter()
    watch = Stopwatch()
    oracle = DirectedBFSOracle(graph)

    bounds = BoundState(n)
    pick_upper = True
    while True:
        unresolved = np.flatnonzero(~bounds.resolved_mask())
        if len(unresolved) == 0:
            break
        if pick_upper:
            source = int(unresolved[np.argmax(bounds.upper[unresolved])])
        else:
            source = int(unresolved[np.argmin(bounds.lower[unresolved])])
        pick_upper = not pick_upper

        ecc_probe, fwd, bwd = oracle.source_probe(source, counter=counter)
        if np.any(fwd == UNREACHED) and n > 1:
            raise DisconnectedGraphError(
                2, "directed graph is not strongly connected"
            )
        ecc_s = int(ecc_probe)
        # ecc(v) >= max(dist(v, t), ecc(t) - dist(t, v));
        # ecc(v) <= dist(v, t) + ecc(t).
        bounds.apply_lemma31(bwd, ecc_s, dist_from_t=fwd)
        bounds.set_exact(source, ecc_s)

    elapsed = watch.elapsed()
    ecc = bounds.lower.astype(np.int32)
    return EccentricityResult(
        eccentricities=ecc,
        lower=ecc.copy(),
        upper=ecc.copy(),
        exact=True,
        algorithm="DirectedECC",
        num_bfs=counter.bfs_runs,
        elapsed_seconds=elapsed,
        counter=counter,
    )


def directed_solver(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
    memoize_distances: bool = False,
) -> EccentricitySolver:
    """An :class:`EccentricitySolver` over the directed BFS oracle.

    The solver's :meth:`~EccentricitySolver.steps` iterator is the
    directed anytime mode: each snapshot leaves valid forward-ecc
    bounds in ``solver.bounds``.
    """
    return EccentricitySolver(
        DirectedBFSOracle(graph),
        num_references=1,
        memoize_distances=memoize_distances,
        counter=counter,
    )


def directed_ifecc_eccentricities(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Exact forward eccentricities with the IFECC scheme carried over
    to digraphs.

    Fix a reference ``z`` (highest out-degree).  One forward BFS from
    ``z`` gives ``dist(z, .)`` and ``ecc_f(z)``; one backward BFS gives
    ``dist(., z)``.  Walk the vertices ``u`` in non-increasing
    ``dist(z, u)`` (the forward FFO of ``z``): probing ``u`` is a single
    *backward* BFS, which yields ``dist(v, u)`` for every ``v`` at once —

    * lower: ``ecc_f(v) >= dist(v, u)``;
    * upper (the directed Lemma 3.3 tail cap): once the whole prefix of
      the order has been probed, every unprobed ``u`` has
      ``dist(z, u) <= tail``, so
      ``ecc_f(v) <= max(lb(v), dist(v, z) + tail)``.

    Each probe costs ONE traversal (the bound-propagation variant
    :func:`directed_eccentricities` pays two per source), and the tail
    cap closes the parity-stuck vertices wholesale — the same reason
    IFECC beats BoundECC on undirected graphs.
    """
    return directed_solver(graph, counter=counter).run(
        algorithm="DirectedIFECC"
    )


def directed_radius_and_diameter(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
) -> ExtremesResult:
    """Certified directed radius and diameter with early termination.

    Each probe of the generic extremes driver is a forward + backward
    BFS pair (the directed :meth:`DirectedBFSOracle.source_probe`), so
    both certificates close after a handful of pairs instead of the full
    eccentricity computation.
    """
    return oracle_radius_and_diameter(
        DirectedBFSOracle(graph), counter=counter
    )
