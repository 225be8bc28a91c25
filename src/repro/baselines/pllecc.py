"""PLLECC — Li et al., *Exacting Eccentricity for Small-World Networks*
(ICDE 2018): the state-of-the-art exact baseline the paper improves on.

PLLECC runs in two stages (Algorithm 1):

* **PLLECC-PLL** — build a pruned-landmark-labeling all-pair-shortest-
  distance index (:mod:`repro.pll`).  This stage dominates: the paper
  measures it at >41x the second stage's time, with index sizes of
  190–400 GB on billion-edge graphs.
* **PLLECC-ECC** — select ``r`` high-degree reference nodes, compute each
  reference's FFO by BFS, then resolve each remaining vertex ``v`` by
  probing index distances along its closest reference's FFO, tightening
  Lemma 3.1/3.3 bounds until they meet.

The per-vertex probe loop lives in :mod:`repro.core.probes`, which
replays the same loop with BFS distances to obtain probe numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro.core.ffo import compute_ffos
from repro.core.probes import _probe_vertex
from repro.core.result import EccentricityResult
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import UNREACHED, TraversalCounter
from repro.obs.trace import Stopwatch
from repro.pll.index import PLLIndex, build_pll_index

__all__ = ["PLLECCReport", "pllecc_eccentricities"]

#: Default reference-node count from the ICDE'18 paper (and Section 7.1).
DEFAULT_REFERENCES = 16


@dataclass
class PLLECCReport:
    """Result of a PLLECC run with per-stage accounting.

    Attributes
    ----------
    result:
        The eccentricity result (stage timings are broken out below;
        ``result.elapsed_seconds`` is their sum).
    pll_seconds:
        PLLECC-PLL stage wall time (index construction).
    ecc_seconds:
        PLLECC-ECC stage wall time (bounds + probing).
    index_bytes:
        Memory held by the distance index.
    index_entries:
        Total label entries in the index.
    probes:
        Number of index distance queries issued by the probe loops.
    """

    result: EccentricityResult
    pll_seconds: float
    ecc_seconds: float
    index_bytes: int
    index_entries: int
    probes: int


def pllecc_eccentricities(
    graph: Graph,
    num_references: int = DEFAULT_REFERENCES,
    index: Optional[PLLIndex] = None,
    counter: Optional[TraversalCounter] = None,
    time_budget: Optional[float] = None,
) -> PLLECCReport:
    """Exact ED with PLLECC (Algorithm 1).

    Parameters
    ----------
    graph:
        Connected input graph.
    num_references:
        ``r`` — the paper's default is 16.
    index:
        A prebuilt PLL index to reuse; when omitted the PLLECC-PLL stage
        builds one (and its time is reported in ``pll_seconds``).
    time_budget:
        Optional wall-clock cap (seconds) on the index construction —
        the analogue of the paper's 24-hour cut-off.  Raises
        :class:`repro.errors.BudgetExhaustedError` when exceeded.
    """
    if num_references < 1:
        raise InvalidParameterError("num_references must be >= 1")
    counter = counter if counter is not None else TraversalCounter()
    n = graph.num_vertices
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")

    # ------------------------------------------------------------- PLL
    pll_watch = Stopwatch()
    if index is None:
        index = build_pll_index(graph, time_budget=time_budget)
        pll_seconds = pll_watch.elapsed()
    else:
        pll_seconds = 0.0

    # ------------------------------------------------------------- ECC
    ecc_watch = Stopwatch()
    references = graph.top_degree_vertices(min(num_references, n))
    ffos = []
    for ffo in compute_ffos(graph, references, counter=counter):
        if np.any(ffo.distances == UNREACHED):
            from repro.graph.components import connected_components

            raise DisconnectedGraphError(
                connected_components(graph).num_components
            )
        ffos.append(ffo)

    lower = np.zeros(n, dtype=np.int64)
    upper = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    for idx, z in enumerate(references):
        lower[z] = upper[z] = ffos[idx].eccentricity

    ref_dists = np.stack([f.distances for f in ffos])
    owner_idx = np.argmin(ref_dists, axis=0)
    probes = 0
    ref_set = set(int(z) for z in references)
    for v in range(n):
        if v in ref_set:
            continue
        lower[v], upper[v], count = _probe_vertex(
            ffos[int(owner_idx[v])], v, partial(index.query, v)
        )
        probes += count
    ecc_seconds = ecc_watch.elapsed()

    exact = bool(np.all(lower == upper))
    ecc = lower.astype(np.int32)
    result = EccentricityResult(
        eccentricities=ecc,
        lower=ecc.copy(),
        upper=upper.astype(np.int32)
        if exact
        else np.minimum(upper, np.iinfo(np.int32).max).astype(np.int32),
        exact=exact,
        algorithm=f"PLLECC-{num_references}",
        num_bfs=counter.bfs_runs,
        elapsed_seconds=pll_seconds + ecc_seconds,
        reference_nodes=references.copy(),
        counter=counter,
    )
    return PLLECCReport(
        result=result,
        pll_seconds=pll_seconds,
        ecc_seconds=ecc_seconds,
        index_bytes=index.size_bytes(),
        index_entries=index.num_label_entries(),
        probes=probes,
    )
