"""Breadth-first-search entry points.

Every algorithm in the paper — IFECC, kIFECC, PLLECC, BoundECC, kBFS, the
naive |V|-BFS baseline and SNAP's diameter estimator — reduces to a sequence
of single-source BFS computations on an unweighted graph.  This module
provides that primitive once; the actual kernel lives in
:mod:`repro.graph.engine`, a direction-optimizing (top-down / bottom-up)
BFS with pooled per-graph workspace buffers.  The functions here are thin
wrappers over the per-graph cached :class:`repro.graph.engine.BFSEngine`,
so callers keep the simple functional API while repeated traversals of one
graph stop paying per-run allocation.

The central entry points are:

:func:`bfs_distances`
    distances from one source to every vertex (``-1`` for unreachable).
:func:`multi_source_bfs`
    distance to the *nearest* of a set of sources, for one BFS worth of
    work (kBFS and the Roditty–Williams estimator score vertices by it).
:class:`TraversalCounter`
    a cost meter shared by the benchmark harness; algorithms report their
    work in "number of BFS runs", the cost unit the paper uses when
    comparing approximate algorithms (Section 7.3).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.graph.csr import Graph
from repro.graph.engine import UNREACHED, engine_for

__all__ = [
    "UNREACHED",
    "TraversalCounter",
    "bfs_distances",
    "eccentricity_and_distances",
    "multi_source_bfs",
]


def bfs_distances(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances from ``source`` to all vertices.

    Returns an ``int32`` array of length ``n`` with ``UNREACHED`` (-1) for
    vertices in other components.  Runs in ``O(m + n)`` time and space.

    :dtype dist: int32
    """
    # The engine returns its pooled buffer; copy so callers own the result.
    return engine_for(graph).run(source, counter=counter).copy()


def eccentricity_and_distances(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> Tuple[int, np.ndarray]:
    """Eccentricity of ``source`` together with its distance vector.

    The eccentricity is taken over the reachable vertices only, matching
    the paper's connected-graph convention (footnote 2).
    """
    engine = engine_for(graph)
    dist = engine.run(source, counter=counter)
    return engine.last_ecc, dist.copy()


def multi_source_bfs(
    graph: Graph,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distance from every vertex to its closest source.

    ``UNREACHED`` marks vertices no source reaches.  One BFS whose
    frontier starts with every source, so one BFS worth of work
    regardless of ``len(sources)``; ``counter`` is credited with one
    unlabelled run.

    :dtype dist: int32
    """
    return engine_for(graph).run(sources, counter=counter).copy()
