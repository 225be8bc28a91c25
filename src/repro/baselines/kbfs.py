"""kBFS — Shun, *An Evaluation of Parallel Eccentricity Estimation
Algorithms on Undirected Real-World Graphs* (KDD 2015).

The state-of-the-art approximate ED algorithm the paper compares kIFECC
against (Section 7.3).  kBFS spends its budget of ``k`` BFS runs in two
sampling stages:

1. **Random stage** — ``k/2`` sources drawn uniformly at random; their
   BFS distances raise every vertex's lower bound (Lemma 3.1).
2. **Election stage** — the remaining ``k/2`` sources are the vertices
   *farthest from the random sample* (maximum distance to their nearest
   sampled source), i.e. periphery candidates likely to realise other
   vertices' eccentricities.

The estimate for each vertex is its accumulated lower bound
``max_s max(dist(s, v), ecc(s) - dist(s, v))``.  Unlike kIFECC, each run
draws a fresh sample, so accuracy is *not* monotone in ``k`` — the
instability Figure 11 demonstrates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import BoundState
from repro.core.result import EccentricityResult
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.batch import distance_rows
from repro.graph.traversal import TraversalCounter, multi_source_bfs
from repro.obs.trace import Stopwatch
from repro.sentinels import UNREACHED

__all__ = ["kbfs_eccentricities"]


def _probe(
    graph: Graph,
    bounds: BoundState,
    sources: np.ndarray,
    counter: TraversalCounter,
) -> None:
    """BFS from every source, pin its eccentricity and apply Lemma 3.1.

    The rows come from shared MS-BFS lane sweeps; the bound updates run
    in source order, as a loop of single BFSs would apply them.
    """
    rows = distance_rows(graph, sources, counter=counter)
    for s, dist_s in zip(sources, rows):
        ecc_s = int(dist_s[dist_s != UNREACHED].max())
        bounds.set_exact(int(s), ecc_s)
        bounds.apply_lemma31(dist_s, dist_s, ecc_s)


def kbfs_eccentricities(
    graph: Graph,
    k: int,
    seed: int = 0,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Approximate the ED with ``k`` sampled BFS runs (kBFS).

    Parameters
    ----------
    graph:
        Input graph (need not be connected; estimates stay within
        components).
    k:
        Total BFS budget, split evenly between the random and election
        stages.
    seed:
        Sampling seed.  Different seeds (or different ``k``) draw
        different sources — re-running with a larger ``k`` does *not*
        extend a previous run.
    """
    if k < 1:
        raise InvalidParameterError("sample size k must be >= 1")
    n = graph.num_vertices
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    counter = counter if counter is not None else TraversalCounter()
    rng = np.random.default_rng(seed)
    watch = Stopwatch()
    bounds = BoundState(n)

    k = min(k, n)
    num_random = max(1, k // 2)
    random_sources = rng.choice(n, size=num_random, replace=False)

    _probe(graph, bounds, random_sources, counter)

    num_elected = k - num_random
    sources = list(int(s) for s in random_sources)
    if num_elected > 0:
        # One multi-source sweep scores every vertex by its distance to
        # the nearest random source; the farthest are periphery
        # candidates.  (The sweep is one extra BFS of work; the paper's
        # budget accounting is per-BFS, so we count it.)
        near_dist = multi_source_bfs(graph, sources, counter=counter)
        score = near_dist.astype(np.int64)
        score[random_sources] = -1  # never re-elect a sampled source
        elected = np.argsort(-score, kind="stable")[:num_elected]
        _probe(graph, bounds, elected, counter)
        sources.extend(int(s) for s in elected)

    return EccentricityResult.from_bounds(
        bounds,
        f"kBFS(k={k})",
        counter,
        watch.elapsed(),
        reference_nodes=np.asarray(sources, dtype=np.int32),
    )
