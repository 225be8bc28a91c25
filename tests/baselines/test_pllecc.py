"""Unit tests for the PLLECC baseline (Algorithm 1)."""

import numpy as np
import pytest

from repro.baselines.pllecc import pllecc_eccentricities
from repro.core.probes import probe_numbers
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.generators import grid_graph, path_graph
from repro.pll.index import build_pll_index
from helpers import exact_eccentricities, random_connected_graph


class TestExactness:
    def test_paper_example(self, example_graph, example_eccentricities):
        report = pllecc_eccentricities(example_graph, num_references=2)
        assert report.result.exact
        np.testing.assert_array_equal(
            report.result.eccentricities, example_eccentricities
        )

    def test_social_graph(self, social_graph, social_truth):
        report = pllecc_eccentricities(social_graph, num_references=16)
        np.testing.assert_array_equal(
            report.result.eccentricities, social_truth
        )

    @pytest.mark.parametrize("r", [1, 2, 8, 16])
    def test_reference_counts(self, web_graph, web_truth, r):
        report = pllecc_eccentricities(web_graph, num_references=r)
        np.testing.assert_array_equal(
            report.result.eccentricities, web_truth
        )

    def test_structured(self):
        for factory in (lambda: path_graph(10), lambda: grid_graph(4, 4)):
            g = factory()
            report = pllecc_eccentricities(g, num_references=2)
            np.testing.assert_array_equal(
                report.result.eccentricities, exact_eccentricities(g)
            )

    def test_random_graphs(self):
        for seed in range(4):
            g = random_connected_graph(50, 35, seed)
            report = pllecc_eccentricities(g, num_references=4)
            np.testing.assert_array_equal(
                report.result.eccentricities, exact_eccentricities(g)
            )


class TestStages:
    def test_pll_stage_dominates(self, social_graph):
        # The paper: index construction is > 41x the ECC stage.  At our
        # scale we only assert the direction.
        report = pllecc_eccentricities(social_graph, num_references=16)
        assert report.pll_seconds > report.ecc_seconds

    def test_prebuilt_index_skips_pll_stage(self, example_graph):
        index = build_pll_index(example_graph)
        report = pllecc_eccentricities(
            example_graph, num_references=2, index=index
        )
        assert report.pll_seconds == 0.0
        assert report.index_bytes == index.size_bytes()

    def test_index_stats_reported(self, example_graph):
        report = pllecc_eccentricities(example_graph, num_references=2)
        assert report.index_bytes > 0
        assert report.index_entries >= example_graph.num_vertices
        assert report.probes > 0

    def test_bfs_only_for_references(self, social_graph):
        report = pllecc_eccentricities(social_graph, num_references=4)
        assert report.result.num_bfs == 4


class TestProbeCount:
    @pytest.mark.parametrize("r", [1, 2, 16])
    @pytest.mark.parametrize("fixture", ["example", "social", "web"])
    def test_probes_equal_probe_numbers(self, request, fixture, r):
        # PLLECC's index queries and the BFS replay of probe_numbers run
        # the same per-vertex loop, so they issue the same probes.
        graph = request.getfixturevalue(f"{fixture}_graph")
        report = pllecc_eccentricities(graph, num_references=r)
        profiles = probe_numbers(graph, graph.top_degree_vertices(r))
        assert report.probes == sum(int(p.counts.sum()) for p in profiles)
        # With every vertex a reference (r = 16 on the 13-node example)
        # nothing is probed.
        assert (report.probes > 0) == (r < graph.num_vertices)


class TestValidation:
    def test_zero_references_rejected(self, example_graph):
        with pytest.raises(InvalidParameterError):
            pllecc_eccentricities(example_graph, num_references=0)

    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            pllecc_eccentricities(g, num_references=1)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            pllecc_eccentricities(
                Graph.from_edges([], num_vertices=0), num_references=1
            )
