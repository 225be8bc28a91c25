"""Result objects returned by eccentricity algorithms.

Exact algorithms (IFECC, PLLECC, BoundECC, the naive baseline) and
approximate ones (kIFECC, kBFS) all return an :class:`EccentricityResult`
so downstream analysis (accuracy, radius/diameter, plots) is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.counters import TraversalCounter

if TYPE_CHECKING:  # runtime import would be circular; annotations only
    from repro.core.bounds import BoundState

__all__ = ["EccentricityResult", "ProgressSnapshot"]


@dataclass(frozen=True)
class ProgressSnapshot:
    """State emitted after each BFS of an anytime run.

    Attributes
    ----------
    bfs_runs:
        Total BFS runs performed so far (reference BFS included).
    source:
        The vertex the last BFS was sourced from.
    resolved:
        Number of vertices whose bounds have met.
    num_vertices:
        Total vertex count (so ``resolved / num_vertices`` is progress).
    """

    bfs_runs: int
    source: int
    resolved: int
    num_vertices: int

    @property
    def fraction_resolved(self) -> float:
        if self.num_vertices == 0:
            return 1.0
        return self.resolved / self.num_vertices


@dataclass
class EccentricityResult:
    """Outcome of an eccentricity-distribution computation.

    Attributes
    ----------
    eccentricities:
        Per-vertex eccentricity.  Exact when ``exact`` is true, otherwise
        the algorithm's estimate (for the anytime algorithms this is the
        lower bound, matching Algorithm 3's return value).
    lower / upper:
        The final bound arrays (``upper`` may contain the int32 "infinity"
        sentinel for never-touched vertices of approximate runs).
    exact:
        True when every vertex's bounds met, so ``eccentricities`` is the
        exact eccentricity distribution ED(G).
    algorithm:
        Human-readable algorithm tag, e.g. ``"IFECC-1"``.
    num_bfs:
        Number of BFS traversals performed (the paper's cost unit).
    elapsed_seconds:
        Wall-clock time of the run.
    reference_nodes:
        The reference set Z (empty for algorithms without one).
    counter:
        The detailed traversal-work meter.
    """

    eccentricities: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    exact: bool
    algorithm: str
    num_bfs: int
    elapsed_seconds: float
    reference_nodes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    counter: Optional[TraversalCounter] = None

    @classmethod
    def from_bounds(
        cls,
        bounds: "BoundState",
        algorithm: str,
        counter: TraversalCounter,
        elapsed_seconds: float,
        reference_nodes: Optional[np.ndarray] = None,
        require_exact: bool = False,
    ) -> "EccentricityResult":
        """The result a bound-driven run leaves in ``bounds``.

        Estimates are the lower bounds (exact where resolved);
        ``require_exact`` raises unless every vertex is resolved (see
        :meth:`repro.core.bounds.BoundState.eccentricities`).  Arrays
        are copied, so the result does not alias the run's state.
        """
        return cls(
            eccentricities=(
                bounds.eccentricities()
                if require_exact
                else bounds.lower.copy()
            ),
            lower=bounds.lower.copy(),
            upper=bounds.upper.copy(),
            exact=bounds.all_resolved(),
            algorithm=algorithm,
            num_bfs=counter.bfs_runs,
            elapsed_seconds=elapsed_seconds,
            reference_nodes=(
                np.empty(0, dtype=np.int32)
                if reference_nodes is None
                else reference_nodes.copy()
            ),
            counter=counter,
        )

    @classmethod
    def from_exact(
        cls,
        ecc: np.ndarray,
        algorithm: str,
        counter: TraversalCounter,
        elapsed_seconds: float,
        reference_nodes: Optional[np.ndarray] = None,
    ) -> "EccentricityResult":
        """The result of a run that computed every eccentricity exactly.

        ``ecc`` becomes the estimates (not copied); both bounds are
        copies of it.  ``reference_nodes`` is copied as in
        :meth:`from_bounds`.
        """
        return cls(
            eccentricities=ecc,
            lower=ecc.copy(),
            upper=ecc.copy(),
            exact=True,
            algorithm=algorithm,
            num_bfs=counter.bfs_runs,
            elapsed_seconds=elapsed_seconds,
            reference_nodes=(
                np.empty(0, dtype=np.int32)
                if reference_nodes is None
                else reference_nodes.copy()
            ),
            counter=counter,
        )

    @property
    def num_vertices(self) -> int:
        return len(self.eccentricities)

    @property
    def radius(self) -> float:
        """Minimum eccentricity (only meaningful for exact results).

        A python ``int`` for hop metrics, ``float`` for weighted ones
        (the value keeps the metric's numeric type via ``.item()``).
        """
        return self.eccentricities.min().item() if self.num_vertices else 0

    @property
    def diameter(self) -> float:
        """Maximum eccentricity (only meaningful for exact results).

        Numeric type follows the metric, as for :attr:`radius`.
        """
        return self.eccentricities.max().item() if self.num_vertices else 0

    def accuracy_against(self, truth: np.ndarray) -> float:
        """Paper's Accuracy metric: % of vertices with exactly correct ecc.

        ``Accuracy = |{v : est(v) == ecc(v)}| / |V| * 100`` (Section 7).
        """
        if len(truth) != self.num_vertices:
            raise ValueError("truth array length mismatch")
        if self.num_vertices == 0:
            return 100.0
        correct = np.count_nonzero(self.eccentricities == truth)
        return 100.0 * correct / self.num_vertices

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "approx"
        return (
            f"EccentricityResult({self.algorithm}, {kind}, "
            f"n={self.num_vertices}, bfs={self.num_bfs}, "
            f"time={self.elapsed_seconds:.3f}s)"
        )
