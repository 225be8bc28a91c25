"""Multiprocessing batch backend behind the oracle seam.

``repro.parallel`` is the ``backend="process"`` implementation that
:func:`repro.graph.batch.make_backend` selects for
:class:`repro.core.oracles.BFSOracle`,
:class:`repro.directed.traversal.DirectedBFSOracle` and the naive
baselines: the graph's CSR is published once into shared memory
(:mod:`repro.parallel.shm`), and a persistent per-graph worker pool
maps it zero-copy (:mod:`repro.parallel.pool`) and runs the two batch
primitives on the same kernels as the in-process backend.  Single
probes stay in-process.  Results are bit-identical to the in-process
backend — parallelism changes speed, never answers.
"""

from __future__ import annotations

from repro.parallel.pool import (
    ProcessBackend,
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)
from repro.parallel.shm import SharedGraph, shared_memory_available

__all__ = [
    "ProcessBackend",
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
    "SharedGraph",
    "shared_memory_available",
]
