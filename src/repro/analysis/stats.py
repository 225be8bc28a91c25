"""Statistical analyses from Sections 4.3 and 7.4.

* :func:`repetition_curve` — Figure 5's measurement: how much the FFO
  *fronts* of multiple reference nodes overlap.  High overlap means
  multi-reference IFECC repeats BFS work, motivating ``r = 1``.
* :func:`farthest_set_statistics` — Figure 12's ``|F1|`` / ``|F2|``
  measurement under the highest-degree reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.ffo import compute_ffos
from repro.core.stratify import stratify
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph

__all__ = [
    "RepetitionPoint",
    "repetition_curve",
    "FarthestSetStats",
    "farthest_set_statistics",
]


@dataclass(frozen=True)
class RepetitionPoint:
    """One x-point of Figure 5."""

    num: int            # front size per reference
    common: int         # |intersection of fronts|
    union: int          # |union of fronts|

    @property
    def ratio(self) -> float:
        """The repetition ratio |∩ D_z| / |∪ D_z|."""
        return self.common / self.union if self.union else 1.0


def repetition_curve(
    graph: Graph,
    nums: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    num_references: int = 16,
) -> List[RepetitionPoint]:
    """The full Figure 5 series (FFOs computed once, fronts sliced)."""
    references = graph.top_degree_vertices(num_references)
    ffos = compute_ffos(graph, references)
    points = []
    for num in nums:
        if num < 1:
            raise InvalidParameterError("front sizes must be >= 1")
        fronts = [set(int(v) for v in f.prefix(num)) for f in ffos]
        common = set.intersection(*fronts)
        union = set.union(*fronts)
        points.append(
            RepetitionPoint(num=num, common=len(common), union=len(union))
        )
    return points


@dataclass(frozen=True)
class FarthestSetStats:
    """Figure 12's statistics for one graph."""

    num_vertices: int
    reference: int
    eccentricity: int
    f1_size: int
    f2_size: int

    @property
    def f1_fraction(self) -> float:
        return self.f1_size / self.num_vertices if self.num_vertices else 0.0

    @property
    def f2_fraction(self) -> float:
        return self.f2_size / self.num_vertices if self.num_vertices else 0.0


def farthest_set_statistics(
    graph: Graph,
    reference: Optional[int] = None,
) -> FarthestSetStats:
    """``|F1|`` and ``|F2|`` under the (default highest-degree) reference."""
    strat = stratify(graph, reference)
    return FarthestSetStats(
        num_vertices=graph.num_vertices,
        reference=strat.reference,
        eccentricity=strat.eccentricity,
        f1_size=len(strat.f1),
        f2_size=len(strat.f2),
    )
