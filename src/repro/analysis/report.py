"""One-call graph analysis reports.

:func:`analyze` bundles the library's measurements — exact ED via IFECC,
radius/diameter with witnesses, the distribution histogram, the F1/F2
stratification, and centrality summaries — into a single
:class:`GraphReport` that renders as readable text.  This is the "what
would a SNAP user want printed" surface the paper's case study motivates
(Section 7.5: "Integrating IFECC into SNAP ... is a must").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.centrality import (
    closeness_centrality,
    degree_centrality,
)
from repro.analysis.distribution import (
    EccentricityDistribution,
    distribution_from_eccentricities,
)
from repro.core.ifecc import compute_eccentricities
from repro.core.stratify import stratify
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.paths import diameter_path
from repro.obs.trace import Stopwatch

__all__ = ["GraphReport", "analyze"]


@dataclass
class GraphReport:
    """The full analysis bundle for one connected graph."""

    num_vertices: int
    num_edges: int
    radius: int
    diameter: int
    eccentricities: np.ndarray
    distribution: EccentricityDistribution
    center_vertices: np.ndarray
    peripheral_vertices: np.ndarray
    diameter_witness: List[int]
    f1_size: int
    f2_size: int
    bfs_used: int
    elapsed_seconds: float
    top_degree: List[tuple]      # (vertex, degree centrality)
    top_closeness: Optional[List[tuple]]

    def render(self) -> str:
        """Human-readable multi-section text report."""
        lines = [
            "=" * 60,
            f"graph: {self.num_vertices} vertices, {self.num_edges} edges",
            f"radius {self.radius}, diameter {self.diameter} "
            f"(exact, {self.bfs_used} BFS, "
            f"{self.elapsed_seconds * 1000:.0f} ms)",
            "-" * 60,
            f"center: {len(self.center_vertices)} vertices "
            f"(e.g. {self.center_vertices[:5].tolist()})",
            f"periphery: {len(self.peripheral_vertices)} vertices attain "
            f"the diameter "
            f"({self.distribution.diameter_vertex_fraction():.2e} of V)",
            "a diameter path: "
            + " -> ".join(str(v) for v in self.diameter_witness[:12])
            + (" ..." if len(self.diameter_witness) > 12 else ""),
            "-" * 60,
            f"farthest sets (highest-degree reference): "
            f"|F1| = {self.f1_size}, |F2| = {self.f2_size}",
            "-" * 60,
            "eccentricity distribution:",
            self.distribution.ascii_plot(width=40),
            "-" * 60,
            "top-degree vertices: "
            + ", ".join(f"{v} ({c:.3f})" for v, c in self.top_degree),
        ]
        if self.top_closeness is not None:
            lines.append(
                "top-closeness vertices: "
                + ", ".join(
                    f"{v} ({c:.3f})" for v, c in self.top_closeness
                )
            )
        lines.append("=" * 60)
        return "\n".join(lines)


def analyze(
    graph: Graph,
    with_closeness: bool = False,
    top: int = 5,
) -> GraphReport:
    """Run the full analysis pipeline on a connected graph.

    ``with_closeness`` adds closeness centrality (an extra |V|-BFS
    sweep via MS-BFS — quadratic, so off by default).
    """
    if graph.num_vertices == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    watch = Stopwatch()
    result = compute_eccentricities(graph)
    ecc = result.eccentricities
    dist = distribution_from_eccentricities(ecc)
    strat = stratify(graph)
    witness = diameter_path(graph) if graph.num_vertices > 1 else [0]

    degree = degree_centrality(graph)
    order = np.argsort(-degree, kind="stable")[:top]
    top_degree = [(int(v), float(degree[v])) for v in order]

    top_close = None
    if with_closeness:
        closeness = closeness_centrality(graph)
        order = np.argsort(-closeness, kind="stable")[:top]
        top_close = [(int(v), float(closeness[v])) for v in order]

    elapsed = watch.elapsed()
    return GraphReport(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        radius=result.radius,
        diameter=result.diameter,
        eccentricities=ecc,
        distribution=dist,
        center_vertices=np.flatnonzero(ecc == result.radius),
        peripheral_vertices=np.flatnonzero(ecc == result.diameter),
        diameter_witness=witness,
        f1_size=len(strat.f1),
        f2_size=len(strat.f2),
        bfs_used=result.num_bfs,
        elapsed_seconds=elapsed,
        top_degree=top_degree,
        top_closeness=top_close,
    )
