"""Pluggable distance oracles for the metric-generic solver core.

Lemmas 3.1 and 3.3 are pure triangle inequalities — valid for *any*
shortest-path metric — so the whole of Algorithm 2 is really one
bound-tightening loop parameterised over "how do I get single-source
distances and an eccentricity?".  :class:`DistanceOracle` is that
parameter: the structural protocol every metric back-end implements so
:class:`repro.core.solver.EccentricitySolver` (and the generic extremes
driver in :mod:`repro.core.extremes`) can run unchanged over

* unweighted BFS hops — :class:`BFSOracle` (this module), wrapping the
  pooled direction-optimizing :class:`repro.graph.engine.BFSEngine`;
* non-negative edge weights — ``DijkstraOracle``
  (:mod:`repro.weighted.dijkstra`);
* directed reachability — ``DirectedBFSOracle``
  (:mod:`repro.directed.traversal`), whose probes are *backward* BFS
  runs (the reverse-distance hook).

The two probe flavours mirror how Algorithm 2 consumes traversals:

``source_probe``
    The full Lemma 3.1 package for a source ``t``: exact ``ecc(t)``,
    the forward distances ``dist(t, .)`` (which seed FFOs and
    territories) and the reverse distances ``dist(., t)`` (which drive
    both bound directions).  Symmetric metrics return the *same* array
    for both — one traversal; the directed oracle pays a
    forward + backward pair.

``sweep_batch``
    The FFO sweep's probes: for ``sources``, the reverse distances
    ``dist(targets, s)`` as one caller-owned ``(len(sources),
    len(targets))`` block, plus each ``ecc(s)`` *when the traversal
    happens to yield it* (symmetric metrics: yes; the directed backward
    BFS: no — ``eccs`` is empty and the solver simply skips the
    ``set_exact`` step, exactly as the directed Lemma 3.3 argument
    requires).  One source is one traversal, credited as a run; several
    are the lanes of one MS-BFS sweep (the paper's reference [35]),
    credited as pending lanes that the solver consumes or discards.
    The class constant ``sweep_lanes`` caps how many probes one
    traversal may carry: 64 for the two BFS oracles, 1 for Dijkstra.

:meth:`repro.core.solver.EccentricitySolver.steps` asks for one probe
per block; :meth:`~repro.core.solver.EccentricitySolver.run` (and
``run_budgeted``) plan lane batches with
:func:`repro.graph.msengine.plan_sweep_width` from the number of the
territory's unresolved members (the block's columns), capped by
``sweep_lanes`` and the budget left, with those members as
targets (Lemma 3.1 reads nothing else), and apply each batch as one
block (:meth:`repro.core.bounds.BoundState.apply_sweep_block`), in FFO
order.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.counters import TraversalCounter
from repro.core.ffo import FarthestFirstOrder, farthest_first_order
from repro.core.reference import get_strategy
from repro.errors import DisconnectedGraphError
from repro.graph.batch import check_backend, ecc_batch, sweep_columns
from repro.graph.csr import Graph
from repro.graph.engine import engine_for
from repro.graph.msengine import LANE_WORD_BITS
from repro.sentinels import unreached_mask

__all__ = ["DistanceOracle", "BFSOracle"]


@runtime_checkable
class DistanceOracle(Protocol):
    """Metric back-end of the generic eccentricity solver.

    Attributes
    ----------
    num_vertices:
        Vertex count of the underlying graph.
    dtype:
        Distance dtype (``int32`` hops or ``float64`` weights); the
        solver sizes its :class:`repro.core.bounds.BoundState` with it.
    tolerance:
        Bound-comparison slack (0 for integer metrics).
    symmetric:
        ``True`` when ``dist(u, v) == dist(v, u)`` — lets the solver
        skip redundant reverse traversals and connectivity checks.
    metric_name:
        Tag prefix for :class:`repro.core.result.EccentricityResult`.
    trace_kind:
        Traversal-kind tag carried on ``solver.probe`` spans (``"bfs"``,
        ``"dijkstra"``, ``"bfs-directed"``) so trace consumers can tell
        what kind of traversal each span timed.
    sweep_lanes:
        How many probes one :meth:`sweep_batch` traversal may carry.
    """

    num_vertices: int
    dtype: np.dtype
    tolerance: float
    symmetric: bool
    metric_name: str
    trace_kind: str
    sweep_lanes: int

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        """The reference set ``Z`` (Algorithm 2, line 1).

        :dtype references: int32
        """
        ...  # pragma: no cover - protocol

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """``(ecc(source), dist(source, .), dist(., source))``.

        Symmetric oracles return the same (caller-owned) array twice;
        the directed oracle runs a forward + backward traversal pair.
        """
        ...  # pragma: no cover - protocol

    def sweep_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(eccs, cols)``: the sweep probes of ``sources``.

        ``targets`` are strictly increasing vertex ids.  ``cols[i, j]``
        is ``dist(targets[j], sources[i])``, a caller-owned
        ``(len(sources), len(targets))`` block, and ``eccs[i]`` the
        eccentricity of ``sources[i]`` (``eccs`` is empty when the
        probes yield none).  One source is one traversal, credited as a
        run; several (at most ``sweep_lanes``) are credited with the
        sweep's work and one pending lane per source, which the caller
        consumes or discards
        (:meth:`repro.counters.TraversalCounter.consume_lanes`).
        """
        ...  # pragma: no cover - protocol

    def disconnected_error(self) -> DisconnectedGraphError:
        """The error describing why the metric's solver cannot run."""
        ...  # pragma: no cover - protocol

    def gap_cap(self) -> float:
        """A finite bound on any vertex's eccentricity (gap accounting)."""
        ...  # pragma: no cover - protocol


def _reference_probe(
    oracle: DistanceOracle,
    reference: int,
    counter: Optional[TraversalCounter],
) -> Tuple[FarthestFirstOrder, np.ndarray]:
    """``(FFO of reference, dist(., reference))``: a driver's first probe.

    The solver's reference probes (Algorithm 2, lines 2-4) and the
    extremes driver's start both need every vertex reached in both
    directions; otherwise the oracle's :meth:`~DistanceOracle.\
disconnected_error` is raised.
    """
    _, dist_from, dist_into = oracle.source_probe(reference, counter=counter)
    if bool(np.any(unreached_mask(dist_from))) or (
        dist_into is not dist_from
        and bool(np.any(unreached_mask(dist_into)))
    ):
        raise oracle.disconnected_error()
    return farthest_first_order(dist_from, reference), dist_into


class BFSOracle:
    """The unweighted hop-count oracle (the paper's own setting).

    Wraps the per-graph cached, pooled-workspace
    :class:`repro.graph.engine.BFSEngine`: ``source_probe`` copies its
    row, which FFOs and territories retain, and :meth:`sweep_batch`
    gathers only the targets' columns
    (:func:`repro.graph.batch.sweep_columns`): one probe runs the
    hybrid engine, several sweep as up to 64 MS-BFS lanes.

    ``backend``/``workers`` choose the batch backend behind
    :meth:`ecc_all` (:func:`repro.graph.batch.ecc_batch`), checked at
    construction: ``"numpy"`` (the default) runs batches in this
    process, ``"process"`` on a :class:`repro.parallel.pool.TraversalPool`
    of ``workers`` processes.  Probes (``source_probe``/``sweep_batch``)
    always stay in-process — one BFS is cheaper than its IPC round-trip
    — so the sequential bound-tightening loop is bit-identical under
    every backend by construction.
    """

    dtype = np.dtype(np.int32)
    tolerance = 0.0
    symmetric = True
    metric_name = "IFECC"
    trace_kind = "bfs"
    sweep_lanes = LANE_WORD_BITS

    def __init__(
        self,
        graph: Graph,
        backend: str = "numpy",
        workers: Optional[int] = None,
    ) -> None:
        check_backend(backend, workers)
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.engine = engine_for(graph)
        self.backend = backend
        self.workers = workers

    # -- batched entry points ------------------------------------------
    def ecc_all(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Eccentricity of every source (default: all vertices).

        The naive full-ED sweep behind one call, on the batch backend.

        :dtype ecc: int32
        """
        if sources is None:
            sources = np.arange(self.num_vertices, dtype=np.int64)
        return ecc_batch(
            self.graph, sources, counter, self.backend, self.workers
        )

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        return get_strategy(strategy)(self.graph, count, seed)

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        dist = self.engine.run(source, counter=counter).copy()
        return self.engine.last_ecc, dist, dist

    def sweep_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One hybrid BFS, or up to 64 MS-BFS lanes (see the protocol).

        :dtype eccs: int32
        :dtype cols: int32
        """
        return sweep_columns(self.graph, sources, targets, counter)

    def disconnected_error(self) -> DisconnectedGraphError:
        from repro.graph.components import split_components

        return DisconnectedGraphError(
            num_components=len(split_components(self.graph))
        )

    def gap_cap(self) -> float:
        # Any hop eccentricity is < n.
        return float(self.num_vertices)
