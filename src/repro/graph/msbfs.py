"""Bit-parallel multi-source BFS (MS-BFS) — the batch-traversal API.

Then et al., *The More the Merrier: Efficient Multi-Source Graph
Traversal* (VLDB 2014) — the paper's reference [35] — showed that up to
64 BFS traversals can share one sweep over the graph by packing their
"visited" sets into machine words: one ``uint64`` lane per source.

This is the substrate of choice when *many* full BFS runs are needed —
the naive ED oracle, closeness centrality, and kBFS-style sampling all
benefit.  IFECC itself needs few traversals, so the paper's algorithm
does not use it; here its exact run sweeps only a territory's later FFO
probes as lanes (:meth:`repro.graph.msengine.MSBFSEngine.column_batch`).

The sweeps themselves live in :mod:`repro.graph.msengine` since the
direction-optimizing rewrite: :class:`~repro.graph.msengine.MSBFSEngine`
runs the lane kernel top-down *or* bottom-up per level (Beamer-style
switching over the lanes' aggregate frontier arc mass) and supports
64/128/256-lane words.  This module keeps the historical entry points —
:func:`multi_source_distances` and :func:`msbfs_eccentricities` — as
one-line delegates to the batch kernels, with identical results: lane
packing and direction choice never change the level-synchronous
distances.  Batches that should run on a worker pool go through a
backend object instead (:mod:`repro.graph.batch`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import Graph
from repro.graph.engine import engine_for
from repro.graph.msengine import batch_distance_rows
from repro.graph.traversal import TraversalCounter

__all__ = [
    "multi_source_distances",
    "msbfs_eccentricities",
]


def multi_source_distances(
    graph: Graph,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Full distance vectors for many sources via MS-BFS.

    Returns an ``(len(sources), n)`` matrix; row ``i`` equals
    ``bfs_distances(graph, sources[i])``.  Sources are cut into lane
    groups as planned by
    :func:`repro.graph.msengine.plan_lane_width`; duplicate sources
    share one pooled lane and are expanded afterwards (each still
    credited as one traversal).

    :dtype src: int64
    """
    src = np.asarray(list(sources), dtype=np.int64)
    return batch_distance_rows(graph, src, counter=counter)


def msbfs_eccentricities(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """The naive exact ED computed with MS-BFS batches.

    Same quadratic work as :func:`repro.baselines.naive`, but each sweep
    serves a full lane group — the fair "fast naive" baseline of [35].
    Eccentricities are taken within components.

    :dtype ecc: int32
    """
    return engine_for(graph).ecc_batch(
        np.arange(graph.num_vertices), counter=counter
    )
