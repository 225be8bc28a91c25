"""Multiprocessing half of the batch seam.

``repro.parallel`` runs ``backend="process"`` batches of
:func:`repro.graph.batch.ecc_batch`, the one entry that takes a
``backend=`` besides ``BFSOracle(graph, backend=, workers=)``, which
hands it on: a persistent per-graph worker
pool (:mod:`repro.parallel.pool`) whose workers inherit the graph by
fork (or receive a pickled copy under spawn), run the planned batch's
lane groups through :func:`repro.graph.batch.lane_groups` and return
each chunk's eccentricities on their reply queue.  Single probes stay
in-process.  Results are bit-identical to the in-process backend —
parallelism changes speed, never answers.
"""

from __future__ import annotations

from repro.parallel.pool import (
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)

__all__ = [
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
]
