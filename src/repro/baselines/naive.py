"""The naive |V|-BFS exact baseline.

One BFS per vertex — the quadratic straw man every other algorithm is
measured against, and the simplest possible correctness oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.oracles import BFSOracle
from repro.core.result import EccentricityResult
from repro.errors import InvalidParameterError
from repro.graph.batch import lane_groups
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = ["naive_eccentricities"]


def naive_eccentricities(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
    traversal: str = "batch",
) -> EccentricityResult:
    """Exact ED with one BFS per vertex (eccentricity within components).

    ``traversal="batch"`` (default) is one :meth:`BFSOracle.ecc_all`
    call, the bit-parallel MS-BFS lane sweeps.  ``"loop"`` keeps the
    historical one-BFS-per-vertex loop on the single-source engine (the
    honest quadratic straw man for ablations): the width-0 loop of
    :func:`repro.graph.batch.lane_groups`.  Both produce the same
    eccentricities bit for bit.

    :dtype ecc: int32
    """
    if traversal not in ("batch", "loop"):
        raise InvalidParameterError(
            f"traversal must be 'batch' or 'loop', got {traversal!r}"
        )
    counter = counter if counter is not None else TraversalCounter()
    watch = Stopwatch()
    if traversal == "batch":
        ecc = BFSOracle(graph).ecc_all(counter=counter)
    else:
        sources = np.arange(graph.num_vertices, dtype=np.int64)
        ecc = lane_groups(graph, sources, 0, counter)
    return EccentricityResult.from_exact(
        ecc, "Naive", counter, watch.elapsed()
    )
