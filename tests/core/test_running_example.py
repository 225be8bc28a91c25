"""End-to-end replay of every worked example in the paper (Sections 2-5).

Each test cites the example it reproduces; together they pin the running
example's semantics so that a regression in any algorithm shows up as a
broken paper trace.
"""

import numpy as np
import pytest

from repro.core.ffo import compute_ffo
from repro.core.ifecc import IFECC, compute_eccentricities
from repro.core.oracles import BFSOracle
from repro.core.solver import EccentricitySolver
from repro.core.stratify import stratify
from repro.graph.traversal import bfs_distances
from repro.obs.trace import MemorySink, tracing

from helpers import exact_eccentricities


class TestSection2:
    def test_example_21_graph_size(self, example_graph):
        """Figure 1: 13 nodes and 15 edges."""
        assert example_graph.num_vertices == 13
        assert example_graph.num_edges == 15

    def test_example_21_degree(self, example_graph):
        """deg(v10) = 2."""
        assert example_graph.degree(9) == 2

    def test_example_21_distance(self, example_graph):
        """dist(v10, v12) = 2."""
        assert bfs_distances(example_graph, 9)[11] == 2

    def test_example_23_ecc_v10(self, example_graph):
        """ecc(v10) = 4 with farthest node v1."""
        dist = bfs_distances(example_graph, 9)
        assert dist.max() == 4
        assert dist[0] == 4

    def test_example_23_radius_diameter(self, example_eccentricities):
        """rad = 3 and dia = 5."""
        assert example_eccentricities.min() == 3
        assert example_eccentricities.max() == 5


class TestSection3:
    def test_example_32_reference_nodes(self, example_graph):
        """Z = {v13, v7}, the two highest-degree nodes."""
        assert example_graph.top_degree_vertices(2).tolist() == [12, 6]

    def test_example_32_ffo_v13(self, example_graph):
        """L^{v13} lists all nodes by non-increasing distance to v13."""
        ffo = compute_ffo(example_graph, 12)
        dists = ffo.distances[ffo.order]
        assert list(dists) == sorted(dists, reverse=True)
        assert ffo.order[0] == 0  # v1 farthest

    def test_example_34_bound_trace(self, example_graph):
        """The probe trace for ecc(v9): bounds 3/5 -> 3/4 -> 3/3."""
        ffo = compute_ffo(example_graph, 12)  # z = v13
        v = 8  # v9
        dist_v = bfs_distances(example_graph, v)
        dist_vz = int(ffo.distances[v])
        assert dist_vz == 1
        assert ffo.eccentricity == 4
        lower = max(dist_vz, ffo.eccentricity - dist_vz)
        upper = dist_vz + ffo.eccentricity
        assert (lower, upper) == (3, 5)
        trace = []
        for i, node in enumerate(ffo.order):
            lower = max(lower, int(dist_v[node]))
            tail = ffo.distance_of_rank(i + 1)
            upper = min(upper, max(lower, tail + dist_vz))
            trace.append((lower, upper))
            if lower == upper:
                break
        assert trace == [(3, 4), (3, 3)]
        assert lower == 3  # ecc(v9) = 3


class TestSection4:
    def test_example_46_territories(self, example_graph):
        """V^{v13} = {v1, v2, v3, v8..v12}, V^{v7} = {v4, v5, v6}: the
        territories the solver itself assigns (Algorithm 2, line 6)."""
        solver = EccentricitySolver(BFSOracle(example_graph), num_references=2)
        sink = MemorySink()
        with tracing(sink):
            for _snapshot in solver._initialise():
                pass
        territories = {
            t.reference: t.members.tolist() for t in solver._territories
        }
        assert territories == {12: [0, 1, 2, 7, 8, 9, 10, 11], 6: [3, 4, 5]}
        events = [
            (e["reference"], e["size"])
            for e in sink.events
            if e["name"] == "solver.territory"
        ]
        assert events == [(12, 8), (6, 3)]

    def test_example_47_figure6_bfs_counts(self, example_graph):
        """Figure 6: one reference node needs 4 + 1 = 5 BFS; Figure 4's
        two-reference run needs more."""
        one = compute_eccentricities(example_graph, num_references=1)
        two = compute_eccentricities(example_graph, num_references=2)
        assert one.num_bfs == 5
        assert two.num_bfs > one.num_bfs

    def test_ifecc_matches_oracle(self, example_graph, example_eccentricities):
        result = compute_eccentricities(example_graph)
        np.testing.assert_array_equal(
            result.eccentricities, example_eccentricities
        )


class TestSection5:
    def test_example_52_layers(self, example_graph):
        """Five layers of z = v13 with ecc(z) = 4."""
        strat = stratify(example_graph, reference=12)
        sizes = strat.layer_sizes().tolist()
        assert sizes == [1, 6, 4, 1, 1]

    def test_example_54_f_sets(self, example_graph):
        """F1 = {v1..v6} (last 3 layers), F2 = {v1, v2}."""
        strat = stratify(example_graph, reference=12)
        assert strat.f1.tolist() == [0, 1, 2, 3, 4, 5]
        assert strat.f2.tolist() == [0, 1]
