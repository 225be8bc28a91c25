"""Side-by-side algorithm comparison on one graph.

:func:`compare_algorithms` runs the exact-algorithm roster on a graph
and returns structured rows — the library-level engine behind the CLI's
``compare`` subcommand and a convenient harness for notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.boundecc import boundecc_eccentricities
from repro.baselines.naive import naive_eccentricities
from repro.baselines.pllecc import pllecc_eccentricities
from repro.core.ifecc import compute_eccentricities
from repro.core.result import EccentricityResult
from repro.errors import BudgetExhaustedError, InvalidParameterError
from repro.graph.csr import Graph
from repro.obs.trace import Stopwatch

__all__ = ["AlgorithmRow", "ComparisonTable", "compare_algorithms"]


@dataclass(frozen=True)
class AlgorithmRow:
    """One algorithm's outcome on the comparison graph."""

    name: str
    seconds: Optional[float]      # None = did not finish (budget)
    num_bfs: Optional[int]
    radius: Optional[int]
    diameter: Optional[int]
    exact: bool

    @property
    def finished(self) -> bool:
        return self.seconds is not None


@dataclass
class ComparisonTable:
    """All rows plus the consensus check."""

    graph_vertices: int
    graph_edges: int
    rows: List[AlgorithmRow]

    def row(self, name: str) -> AlgorithmRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise InvalidParameterError(f"no row named {name!r}")

    def render(self) -> str:
        lines = [
            f"graph: n={self.graph_vertices} m={self.graph_edges}",
            f"{'algorithm':<12} {'time':>10} {'#BFS':>7} {'rad':>4} {'dia':>4}",
        ]
        for row in self.rows:
            if not row.finished:
                lines.append(
                    f"{row.name:<12} {'DNF':>10} {'-':>7} {'-':>4} {'-':>4}"
                )
                continue
            lines.append(
                f"{row.name:<12} {row.seconds:>9.3f}s {row.num_bfs:>7} "
                f"{row.radius:>4} {row.diameter:>4}"
            )
        return "\n".join(lines)


def compare_algorithms(
    graph: Graph,
    pllecc_budget: float = 60.0,
    boundecc_max_bfs: int = 20_000,
    include_naive: bool = False,
) -> ComparisonTable:
    """Run IFECC-1/IFECC-16/BoundECC/PLLECC (and optionally the naive
    oracle) on ``graph`` and cross-check their answers.

    Raises :class:`InvalidParameterError` if two exact finishers
    disagree (which would indicate a library bug, not a usage error —
    the check is the point of the harness).
    """
    rows: List[AlgorithmRow] = []
    reference_ecc = None

    def add(
        name: str,
        seconds: Optional[float],
        num_bfs: Optional[int],
        result: Optional[EccentricityResult],
    ) -> None:
        nonlocal reference_ecc
        if result is None:
            rows.append(AlgorithmRow(name, None, None, None, None, False))
            return
        if result.exact:
            if reference_ecc is None:
                reference_ecc = result.eccentricities
            elif not np.array_equal(result.eccentricities, reference_ecc):
                raise InvalidParameterError(
                    f"{name} disagrees with the reference eccentricities"
                )
        rows.append(
            AlgorithmRow(
                name,
                seconds,
                num_bfs,
                result.radius,
                result.diameter,
                result.exact,
            )
        )

    ifecc = compute_eccentricities(graph, num_references=1)
    add("IFECC-1", ifecc.elapsed_seconds, ifecc.num_bfs, ifecc)
    ifecc16 = compute_eccentricities(graph, num_references=16)
    add("IFECC-16", ifecc16.elapsed_seconds, ifecc16.num_bfs, ifecc16)
    bound = boundecc_eccentricities(graph, max_bfs=boundecc_max_bfs)
    if bound.exact:
        add("BoundECC", bound.elapsed_seconds, bound.num_bfs, bound)
    else:
        add("BoundECC", None, None, None)
    try:
        watch = Stopwatch()
        report = pllecc_eccentricities(
            graph, num_references=16, time_budget=pllecc_budget
        )
        add(
            "PLLECC",
            watch.elapsed(),
            report.result.num_bfs,
            report.result,
        )
    except BudgetExhaustedError:
        add("PLLECC", None, None, None)
    if include_naive:
        naive = naive_eccentricities(graph)
        add("Naive", naive.elapsed_seconds, naive.num_bfs, naive)

    return ComparisonTable(
        graph_vertices=graph.num_vertices,
        graph_edges=graph.num_edges,
        rows=rows,
    )
