"""Graph substrate: CSR storage, construction, traversal, components, I/O,
and synthetic generators.

This package is self-contained (numpy only) and is the foundation every
algorithm in :mod:`repro.core` and :mod:`repro.baselines` builds on.
"""

from repro.graph.batch import distance_rows as batch_distance_rows
from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine, engine_for
from repro.graph.components import (
    connected_components,
    largest_connected_component,
    split_components,
)
from repro.graph.csr import Graph
from repro.graph.msengine import MSBFSEngine, msengine_for, plan_lane_width
from repro.graph.paths import bfs_parents, diameter_path
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    bfs_distances,
    eccentricity_and_distances,
    multi_source_bfs,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "TraversalCounter",
    "BFSEngine",
    "engine_for",
    "MSBFSEngine",
    "batch_distance_rows",
    "msengine_for",
    "plan_lane_width",
    "UNREACHED",
    "bfs_distances",
    "eccentricity_and_distances",
    "multi_source_bfs",
    "bfs_parents",
    "diameter_path",
    "connected_components",
    "largest_connected_component",
    "split_components",
]

