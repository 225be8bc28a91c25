"""Eccentricity-distribution analytics (Figure 15 and Exp-3).

The *eccentricity distribution plot* maps each eccentricity value in
``[radius, diameter]`` to the number of vertices attaining it.  Its
extreme right tail — the handful of vertices whose eccentricity equals
the diameter — is why uniform sampling estimates the diameter poorly
(Exp-3 measures that tail at ~3.2e-6 of V on the study graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["EccentricityDistribution", "distribution_from_eccentricities"]


@dataclass(frozen=True)
class EccentricityDistribution:
    """Histogram of an eccentricity distribution.

    Attributes
    ----------
    values:
        Sorted distinct eccentricity values (x-axis of Figure 15).
    counts:
        ``counts[i]`` vertices have eccentricity ``values[i]``.
    """

    values: np.ndarray
    counts: np.ndarray

    @property
    def num_vertices(self) -> int:
        return int(self.counts.sum())

    @property
    def radius(self) -> int:
        return int(self.values[0]) if len(self.values) else 0

    @property
    def diameter(self) -> int:
        return int(self.values[-1]) if len(self.values) else 0

    def diameter_vertex_count(self) -> int:
        """Vertices whose eccentricity equals the diameter (Exp-3)."""
        return int(self.counts[-1]) if len(self.counts) else 0

    def diameter_vertex_fraction(self) -> float:
        """The probability a uniform sample realises the diameter."""
        n = self.num_vertices
        return self.diameter_vertex_count() / n if n else 0.0

    def as_series(self) -> List[Tuple[int, int]]:
        """``(eccentricity, count)`` pairs for plotting."""
        return list(zip(self.values.tolist(), self.counts.tolist()))

    def mean(self) -> float:
        """Average eccentricity."""
        n = self.num_vertices
        if n == 0:
            return 0.0
        return float(
            (self.values.astype(np.float64) * self.counts).sum() / n
        )

    def ascii_plot(self, width: int = 50) -> str:
        """Render the histogram as ASCII bars (benchmark output)."""
        if len(self.values) == 0:
            return "(empty)"
        peak = int(self.counts.max())
        lines = []
        for value, count in self.as_series():
            bar = "#" * max(1, int(round(width * count / peak)))
            lines.append(f"ecc={value:>3}  {count:>10}  {bar}")
        return "\n".join(lines)


def distribution_from_eccentricities(
    eccentricities: np.ndarray,
) -> EccentricityDistribution:
    """Build the histogram from a per-vertex eccentricity array."""
    eccentricities = np.asarray(eccentricities)
    if eccentricities.ndim != 1:
        raise InvalidParameterError("eccentricities must be a 1-D array")
    if len(eccentricities) and eccentricities.min() < 0:
        raise InvalidParameterError("eccentricities must be non-negative")
    values, counts = np.unique(eccentricities, return_counts=True)
    return EccentricityDistribution(
        values=values.astype(np.int64), counts=counts.astype(np.int64)
    )
