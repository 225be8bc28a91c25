"""Exact forward eccentricities of strongly connected directed graphs.

The forward eccentricity of ``v`` is ``ecc(v) = max_u dist(v, u)``
(distances along arc directions); the directed radius and diameter are
its min and max.  The triangle inequality gives directed analogues of
Lemma 3.1 — for a processed source ``t`` with known ``ecc(t)``:

* ``ecc(v) <= dist(v, t) + ecc(t)``          (needs ``dist(v, t)``,
  obtained from one *backward* BFS from ``t``), and
* ``ecc(v) >= ecc(t) - dist(t, v)``          (needs ``dist(t, v)``,
  from the *forward* BFS), and ``ecc(v) >= dist(v, t)``.

Both run on the shared metric-generic machinery over
:class:`repro.directed.traversal.DirectedBFSOracle`:
:func:`directed_ifecc_eccentricities` instantiates
:class:`repro.core.solver.EccentricitySolver` (each sweep probe is ONE
backward BFS; the Lemma 3.3 tail cap closes parity-stuck vertices
wholesale), and :func:`directed_radius_and_diameter` runs the extremes
driver, whose probes are forward + backward pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.extremes import ExtremesResult, oracle_radius_and_diameter
from repro.core.result import EccentricityResult
from repro.core.solver import EccentricitySolver
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import DirectedBFSOracle
from repro.graph.traversal import TraversalCounter

__all__ = [
    "directed_ifecc_eccentricities",
    "naive_directed_eccentricities",
    "directed_radius_and_diameter",
    "directed_solver",
]


def naive_directed_eccentricities(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """One forward BFS per vertex — the directed oracle.

    Requires strong connectivity (raises otherwise).  One
    :meth:`DirectedBFSOracle.ecc_all` call.
    """
    return DirectedBFSOracle(graph).ecc_all(counter=counter)


def directed_solver(
    graph: DirectedGraph,
    counter: Optional[TraversalCounter] = None,
) -> EccentricitySolver:
    """An :class:`EccentricitySolver` over the directed BFS oracle.

    The solver's :meth:`~EccentricitySolver.steps` iterator is the
    directed anytime mode: each snapshot leaves valid forward-ecc
    bounds in ``solver.bounds``.
    """
    return EccentricitySolver(
        DirectedBFSOracle(graph), num_references=1, counter=counter
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

    Each probe costs ONE traversal (a bound-propagation probe pays a
    forward + backward pair), and the tail cap closes the parity-stuck
    vertices wholesale — the same reason IFECC beats BoundECC on
    undirected graphs.
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
