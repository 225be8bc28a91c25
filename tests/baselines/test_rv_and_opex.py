"""Tests for the Roditty–Williams diameter estimator and OPEX."""

import math

import numpy as np
import pytest

from repro.baselines.henderson import opex_eccentricities
from repro.baselines.rv_diameter import rv_estimate_diameter
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.generators import cycle_graph, path_graph
from helpers import exact_eccentricities, random_connected_graph


class TestRVDiameter:
    def test_lower_bound_and_guarantee(self, social_graph, social_truth):
        true_dia = int(social_truth.max())
        for seed in range(5):
            est = rv_estimate_diameter(social_graph, seed=seed)
            assert est.diameter <= true_dia
            # the 2/3 guarantee (w.h.p.; deterministic here since the
            # double-sweep tail usually nails small-world diameters)
            assert 3 * est.diameter >= 2 * true_dia

    def test_double_sweep_tail_often_exact(self, social_graph, social_truth):
        est = rv_estimate_diameter(social_graph, seed=1)
        assert est.diameter == int(social_truth.max())

    def test_bounds_bracket(self, web_graph, web_truth):
        est = rv_estimate_diameter(web_graph, seed=2)
        true_dia = int(web_truth.max())
        # The estimate is a lower bound; the 2/3 guarantee caps the
        # diameter at ceil(3/2 * estimate).
        assert est.diameter <= true_dia <= math.ceil(1.5 * est.diameter)

    def test_default_sample_size(self):
        g = random_connected_graph(100, 80, seed=3)
        est = rv_estimate_diameter(g, seed=0)
        assert 1 <= est.sample_size <= 100

    def test_explicit_sample_size_clamped(self):
        g = path_graph(6)
        est = rv_estimate_diameter(g, sample_size=100, seed=0)
        assert est.sample_size == 6
        assert est.diameter == 5  # full sample = exact

    def test_random_graphs_guarantee(self):
        for seed in range(6):
            g = random_connected_graph(60, 45, seed)
            truth = int(exact_eccentricities(g).max())
            est = rv_estimate_diameter(g, seed=seed)
            assert est.diameter <= truth
            assert 3 * est.diameter >= 2 * truth

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            rv_estimate_diameter(Graph.from_edges([], num_vertices=0))
        with pytest.raises(InvalidParameterError):
            rv_estimate_diameter(path_graph(3), sample_size=0)


class TestOPEX:
    def test_exact_on_fixtures(self, social_graph, social_truth):
        result = opex_eccentricities(social_graph)
        assert result.exact
        np.testing.assert_array_equal(result.eccentricities, social_truth)

    def test_structured(self):
        for g in (path_graph(9), cycle_graph(8)):
            np.testing.assert_array_equal(
                opex_eccentricities(g).eccentricities,
                exact_eccentricities(g),
            )

    def test_budget(self, social_graph):
        result = opex_eccentricities(social_graph, max_bfs=2)
        assert not result.exact
        assert result.num_bfs == 2

    def test_algorithm_tag(self):
        assert opex_eccentricities(path_graph(3)).algorithm == "OPEX"
