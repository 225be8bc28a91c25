"""Multiprocessing batch backend behind the oracle seam.

``repro.parallel`` is the ``backend="process"`` implementation that
:func:`repro.graph.batch.make_backend` selects for
:class:`repro.core.oracles.BFSOracle`,
:class:`repro.directed.traversal.DirectedBFSOracle` and the naive
baselines: a persistent per-graph worker pool
(:mod:`repro.parallel.pool`) whose workers inherit the graph by fork
(or receive a pickled copy under spawn) and return each batch's
eccentricities on their reply queue.  Single probes stay in-process.
Results are bit-identical to the in-process backend — parallelism
changes speed, never answers.
"""

from __future__ import annotations

from repro.parallel.pool import (
    ProcessBackend,
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)

__all__ = [
    "ProcessBackend",
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
]
