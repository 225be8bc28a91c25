"""Traversal-work accounting shared by every distance oracle.

The paper compares approximate algorithms "under the same number of
BFSs" (Section 7.3) and reports exact algorithms by BFS count in the
case study (Section 7.5).  With the weighted and directed extensions
riding the same solver core, the cost unit generalises from "BFS runs"
to *traversal runs* — one Dijkstra or one backward BFS counts exactly
like one BFS, and each back-end additionally reports its own fine-
grained work (arcs expanded, arcs inspected bottom-up or re-scanned,
Dijkstra edge relaxations) so cross-metric comparisons stay honest.

Batched FFO probing (:meth:`repro.core.solver.EccentricitySolver.run`)
sweeps a territory's next probes as MS-BFS lanes before Algorithm 2
knows how many of them it needs.  The counter keeps the algorithm's
accounting regardless: a swept lane becomes a run only when the solver
consumes its row (:meth:`TraversalCounter.consume_lanes`), while the
work counters credit the whole sweep and ``lanes_discarded`` counts
the lanes that were swept but never consumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, Optional, Sequence

__all__ = ["TraversalCounter"]


@dataclass
class TraversalCounter:
    """Counts traversal work for cost accounting, metric-generically.

    ``bfs_runs`` counts *traversals* of any kind — BFS, Dijkstra,
    forward or backward directed BFS — and keeps its historical name so
    every existing report and result field stays meaningful.  For the
    solver it counts the probes Algorithm 2 consumed, whether a probe
    ran alone or as one lane of a batched sweep.

    ``edges_scanned`` counts arcs expanded by the classic frontier
    metric: the arcs of each visited (for Dijkstra, settled) vertex,
    counted once.  ``edges_inspected`` additionally includes the arcs
    that bottom-up levels of the direction-optimizing BFS engine
    examined while probing unvisited vertices — edges that are
    inspected but never "scanned" — and the arcs the Δ-stepping
    Dijkstra re-scanned when a vertex improved again inside its
    bucket.  For a purely top-down traversal the two are equal.
    ``vertices_visited`` counts the vertices a traversal reached.
    ``relaxations`` counts improving Dijkstra candidates (arcs whose
    candidate distance beat the target's tentative one when
    gathered); it stays 0 for unweighted traversals.  These work
    counters, and ``vertices_visited``, credit every lane a sweep ran,
    consumed or not.

    ``lanes_discarded`` counts lanes of batched probe sweeps whose rows
    the solver never consumed (their territory resolved first).

    ``history`` records one label per traversal (``bfs:4``,
    ``dijkstra:7``, ``bwd:12``, ...) so tests and benchmarks can audit
    exactly which oracle ran what.

    Only these methods write the fields; every reader of the totals
    (:meth:`merge`, pool replies, run records, metrics) uses :meth:`totals`.
    """

    bfs_runs: int = 0
    edges_scanned: int = 0
    edges_inspected: int = 0
    vertices_visited: int = 0
    relaxations: int = 0
    lanes_discarded: int = 0
    history: list[str] = field(default_factory=list)
    # History labels of swept lanes not yet consumed, in sweep order.
    _pending: Deque[str] = field(
        default_factory=deque, init=False, repr=False, compare=False
    )

    def record(
        self,
        edges: int,
        vertices: int,
        label: str = "",
        inspected: Optional[int] = None,
        relaxations: int = 0,
        runs: int = 1,
    ) -> None:
        """Record ``runs`` completed traversals (one by default).

        ``inspected`` defaults to ``edges`` (a traversal that never ran
        bottom-up or re-scanned a vertex inspects exactly what it
        scans); ``relaxations`` is the Dijkstra improving-candidate
        count (0 for BFS).  ``runs`` credits several traversals with
        the given work at once: a lane sweep standing in for its
        sources, or the repeated sources a batch traversed once.
        """
        self.bfs_runs += runs
        self.edges_scanned += edges
        self.edges_inspected += edges if inspected is None else inspected
        self.vertices_visited += vertices
        self.relaxations += relaxations
        if label:
            self.history.append(label)

    def record_sweep(
        self,
        edges: int,
        vertices: int,
        inspected: int,
        labels: Sequence[str],
        relaxations: int = 0,
    ) -> None:
        """Record the work of one batched probe sweep, one label per lane.

        No run is counted yet: each lane becomes one when its row is
        consumed (:meth:`consume_lanes`, in ``labels`` order) or is
        counted in ``lanes_discarded`` (:meth:`discard_lanes`).
        """
        self.edges_scanned += edges
        self.edges_inspected += inspected
        self.vertices_visited += vertices
        self.relaxations += relaxations
        self._pending.extend(labels)

    def consume_lanes(self, count: int) -> None:
        """Count the ``count`` oldest pending swept lanes as runs, in order."""
        if count > len(self._pending):
            raise IndexError("consume_lanes: fewer pending lanes than count")
        self.bfs_runs += count
        self.history.extend(self._pending.popleft() for _ in range(count))

    def discard_lanes(self) -> None:
        """Count every pending swept lane as discarded."""
        self.lanes_discarded += len(self._pending)
        self._pending.clear()

    def totals(self) -> Dict[str, int]:
        """The integer fields by name, ``bfs_runs`` first (no history)."""
        return {name: getattr(self, name) for name in _TOTALS}

    def merge(self, other: "TraversalCounter") -> None:
        """Fold another counter's totals and history into this one."""
        for name, value in other.totals().items():
            setattr(self, name, getattr(self, name) + value)
        self.history.extend(other.history)


# The integer fields in declaration order: the one list of the totals.
_TOTALS = tuple(f.name for f in fields(TraversalCounter) if f.type == "int")
