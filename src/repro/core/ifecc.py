"""IFECC — Index-Free Eccentricity Computation (Algorithm 2, Section 4).

IFECC plugs the farthest-first node order (FFO) of a handful of reference
nodes into the BFS-framework:

1. select ``r`` highest-degree reference nodes ``Z`` (line 1);
2. one BFS per ``z`` in ``Z`` yields ``ecc(z)`` and the FFO ``L^z``
   (lines 2–4);
3. every other vertex joins the *territory* ``V^z`` of its closest
   reference and has its bounds seeded by Lemma 3.1 (lines 5–9);
4. for each ``z``, BFS from the nodes of ``L^z`` front-to-back; each BFS
   gives exact distances, so Lemma 3.1 tightens lower bounds and
   Lemma 3.3 caps upper bounds for the territory, until every territory
   member's bounds meet (lines 10–18).

The loop itself lives in the metric-generic
:class:`repro.core.solver.EccentricitySolver`; :class:`IFECC` is its
unweighted instantiation over :class:`repro.core.oracles.BFSOracle` —
``int32`` hop counts, exact (zero-tolerance) bound comparison, one
pooled-workspace BFS per probe.  The class is bit-identical to the
pre-unification implementation: same BFS sequence, counters, snapshots
and results.  :meth:`IFECC.run` may sweep later probes of a territory
as MS-BFS lanes; it consumes their rows in the same order, so its
results, BFS counts and snapshots are the same too.

The engine is *anytime*: :meth:`IFECC.steps` yields a snapshot after each
BFS, which is exactly how Algorithm 3 (kIFECC, :mod:`repro.core.kifecc`)
and the budget-matched SNAP comparison (Figure 14) consume it.

Space is ``O(m + n)`` (Theorem 4.5): the graph, the bound arrays, and the
``r`` reference distance vectors.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.oracles import BFSOracle
from repro.core.result import EccentricityResult
from repro.core.solver import EccentricitySolver
from repro.graph.components import split_components
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = ["IFECC", "compute_eccentricities", "eccentricities_per_component"]


class IFECC(EccentricitySolver):
    """The IFECC engine — :class:`EccentricitySolver` over hop counts.

    Parameters
    ----------
    graph:
        Connected, undirected input graph.  (Disconnected graphs raise
        :class:`repro.errors.DisconnectedGraphError`; use
        :func:`eccentricities_per_component` instead.)
    num_references:
        ``r``, the reference-node count.  The paper's headline
        configuration is ``r = 1`` (Section 4.3: "one reference node is
        enough"); ``r = 16`` matches PLLECC's default and Figure 9's sweep.
    strategy:
        Reference-selection rule: ``"degree"`` (paper default),
        ``"random"``, or ``"center"`` — see :mod:`repro.core.reference`.
    seed:
        Seed for stochastic strategies; ignored by ``"degree"``.
    counter:
        Optional shared :class:`TraversalCounter` for cost accounting.
    """

    def __init__(
        self,
        graph: Graph,
        num_references: int = 1,
        strategy: str = "degree",
        seed: int = 0,
        counter: Optional[TraversalCounter] = None,
    ) -> None:
        self.graph = graph
        super().__init__(
            BFSOracle(graph),
            num_references=num_references,
            strategy=strategy,
            seed=seed,
            counter=counter,
        )


def compute_eccentricities(
    graph: Graph,
    num_references: int = 1,
    strategy: str = "degree",
    seed: int = 0,
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Compute the exact eccentricity distribution with IFECC.

    This is the library's headline entry point — the index-free, exact,
    ``O(m + n)``-space algorithm of the paper with its recommended
    ``r = 1`` default.

    Examples
    --------
    >>> from repro.graph.generators import paper_example_graph
    >>> result = compute_eccentricities(paper_example_graph())
    >>> result.radius, result.diameter
    (3, 5)
    """
    engine = IFECC(
        graph,
        num_references=num_references,
        strategy=strategy,
        seed=seed,
        counter=counter,
    )
    return engine.run()


def eccentricities_per_component(graph: Graph) -> EccentricityResult:
    """IFECC-1 on each connected component (paper footnote 2).

    Eccentricities are taken within each vertex's component; isolated
    vertices get eccentricity 0.
    """
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int32)
    counter = TraversalCounter()
    watch = Stopwatch()
    num_refs_used: List[int] = []
    for subgraph, original_ids in split_components(graph):
        if subgraph.num_vertices == 1:
            ecc[original_ids] = 0
            continue
        result = compute_eccentricities(subgraph, counter=counter)
        ecc[original_ids] = result.eccentricities
        num_refs_used.extend(
            int(original_ids[z]) for z in result.reference_nodes
        )
    return EccentricityResult.from_exact(
        ecc,
        "IFECC-1(per-component)",
        counter,
        watch.elapsed(),
        np.asarray(num_refs_used, dtype=np.int32),
    )
