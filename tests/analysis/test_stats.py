"""Unit tests for the Figure 5 / Figure 12 statistics."""

import pytest

from repro.analysis.stats import farthest_set_statistics, repetition_curve
from repro.core.ffo import compute_ffos
from repro.errors import InvalidParameterError
from repro.graph.generators import star_graph


def repetition_point(graph, num, num_references=16):
    """One Figure 5 point: the curve at a single front size."""
    (point,) = repetition_curve(graph, nums=(num,), num_references=num_references)
    return point


class TestRepetitionRatio:
    def test_ratio_in_unit_interval(self, social_graph):
        point = repetition_point(social_graph, num=10, num_references=4)
        assert 0.0 <= point.ratio <= 1.0

    def test_common_subset_of_union(self, social_graph):
        point = repetition_point(social_graph, num=10, num_references=4)
        assert point.common <= point.union

    def test_high_overlap_behind_deep_trap(self):
        # The Figure 5 observation: FFO fronts of different references
        # share most nodes (>94.5% on the paper's graphs).  The driver
        # is a deep periphery region behind a cut vertex.
        from repro.graph.generators import attach_deep_trap, barabasi_albert

        g = attach_deep_trap(barabasi_albert(300, 3, seed=5), depth=18)
        point = repetition_point(g, num=10, num_references=4)
        assert point.ratio >= 0.9

    def test_star_fronts_identical(self):
        # On a star every reference sees the same far leaves.
        point = repetition_point(star_graph(20), num=5, num_references=2)
        assert point.ratio <= 1.0

    def test_num_validation(self, social_graph):
        with pytest.raises(InvalidParameterError):
            repetition_point(social_graph, num=0)


class TestRepetitionCurve:
    def test_default_xs(self, social_graph):
        points = repetition_curve(social_graph, num_references=4)
        assert [p.num for p in points] == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]

    def test_custom_xs(self, social_graph):
        points = repetition_curve(social_graph, nums=(3, 6), num_references=2)
        assert [p.num for p in points] == [3, 6]

    def test_validation(self, social_graph):
        with pytest.raises(InvalidParameterError):
            repetition_curve(social_graph, nums=(0,))

    def test_matches_pointwise(self, social_graph):
        # Each point is the overlap of the references' FFO fronts.
        curve = repetition_curve(social_graph, nums=(3, 7), num_references=3)
        references = social_graph.top_degree_vertices(3)
        fronts = [
            set(int(v) for v in ffo.prefix(7))
            for ffo in compute_ffos(social_graph, references)
        ]
        assert curve[1].common == len(set.intersection(*fronts))
        assert curve[1].union == len(set.union(*fronts))


class TestFarthestSetStatistics:
    def test_fields(self, social_graph):
        stats = farthest_set_statistics(social_graph)
        assert stats.num_vertices == social_graph.num_vertices
        assert 0 <= stats.f2_size <= stats.f1_size <= stats.num_vertices

    def test_fractions(self, social_graph):
        stats = farthest_set_statistics(social_graph)
        assert stats.f1_fraction == stats.f1_size / stats.num_vertices
        assert stats.f2_fraction == stats.f2_size / stats.num_vertices

    def test_figure12_shape(self, social_graph):
        # |F1| ~ 0.1 n and |F2| << |F1| on small-world graphs.
        stats = farthest_set_statistics(social_graph)
        assert stats.f1_fraction < 0.5
        assert stats.f2_fraction < stats.f1_fraction

    def test_explicit_reference(self, example_graph):
        stats = farthest_set_statistics(example_graph, reference=12)
        assert stats.f1_size == 6
        assert stats.f2_size == 2
