"""Unit tests for eccentricity-distribution analytics (Figure 15)."""

import numpy as np
import pytest

from repro.analysis.distribution import distribution_from_eccentricities
from repro.errors import InvalidParameterError


class TestHistogram:
    def test_basic(self):
        dist = distribution_from_eccentricities(np.array([3, 3, 4, 5, 5, 5]))
        assert dist.values.tolist() == [3, 4, 5]
        assert dist.counts.tolist() == [2, 1, 3]

    def test_radius_diameter(self):
        dist = distribution_from_eccentricities(np.array([2, 4, 3]))
        assert dist.radius == 2
        assert dist.diameter == 4

    def test_counts_sum_to_n(self, social_truth):
        dist = distribution_from_eccentricities(social_truth)
        assert dist.num_vertices == len(social_truth)

    def test_diameter_tail(self):
        dist = distribution_from_eccentricities(np.array([1, 1, 1, 9]))
        assert dist.diameter_vertex_count() == 1
        assert dist.diameter_vertex_fraction() == 0.25

    def test_center_count(self):
        dist = distribution_from_eccentricities(np.array([2, 2, 3]))
        # The center: the vertices at the radius, the smallest value.
        assert dist.values[0] == dist.radius == 2
        assert dist.counts[0] == 2

    def test_mean(self):
        dist = distribution_from_eccentricities(np.array([2, 4]))
        assert dist.mean() == 3.0

    def test_as_series_and_dict(self):
        dist = distribution_from_eccentricities(np.array([1, 2, 2]))
        assert dist.as_series() == [(1, 1), (2, 2)]
        assert dict(dist.as_series()) == {1: 1, 2: 2}

    def test_ascii_plot(self):
        dist = distribution_from_eccentricities(np.array([1, 2, 2]))
        plot = dist.ascii_plot(width=10)
        assert "ecc=  1" in plot and "#" in plot

    def test_empty(self):
        dist = distribution_from_eccentricities(np.array([], dtype=np.int32))
        assert dist.num_vertices == 0
        assert dist.ascii_plot() == "(empty)"
        assert dist.mean() == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            distribution_from_eccentricities(np.array([[1, 2]]))
        with pytest.raises(InvalidParameterError):
            distribution_from_eccentricities(np.array([-1]))

    def test_diameter_tail_is_thin_on_small_world(self, social_truth):
        # The Exp-3 observation that motivates replacing SNAP sampling.
        dist = distribution_from_eccentricities(social_truth)
        assert dist.diameter_vertex_fraction() < 0.1
