"""Analysis utilities: accuracy metrics, ED histograms, F1/F2 and
FFO-overlap statistics, and memory accounting."""

from repro.analysis.accuracy import accuracy
from repro.analysis.centrality import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eccentricity_centrality,
)
from repro.analysis.distribution import (
    EccentricityDistribution,
    distribution_from_eccentricities,
)
from repro.analysis.comparison import (
    AlgorithmRow,
    ComparisonTable,
    compare_algorithms,
)
from repro.analysis.report import GraphReport, analyze
from repro.analysis.memory import (
    MemoryFootprint,
    ifecc_footprint,
    pllecc_footprint,
)
from repro.analysis.stats import (
    FarthestSetStats,
    RepetitionPoint,
    farthest_set_statistics,
    repetition_curve,
)

__all__ = [
    "accuracy",
    "betweenness_centrality",
    "closeness_centrality",
    "degree_centrality",
    "eccentricity_centrality",
    "EccentricityDistribution",
    "distribution_from_eccentricities",
    "AlgorithmRow",
    "ComparisonTable",
    "compare_algorithms",
    "GraphReport",
    "analyze",
    "MemoryFootprint",
    "ifecc_footprint",
    "pllecc_footprint",
    "FarthestSetStats",
    "RepetitionPoint",
    "farthest_set_statistics",
    "repetition_curve",
]
