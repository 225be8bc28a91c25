"""Unit tests for the algorithm-comparison harness."""

import pytest

from repro.analysis.comparison import compare_algorithms
from repro.errors import InvalidParameterError


class TestCompareAlgorithms:
    def test_all_finish_on_small_graph(self, example_graph):
        table = compare_algorithms(example_graph, include_naive=True)
        names = [row.name for row in table.rows]
        assert names == [
            "IFECC-1", "IFECC-16", "BoundECC", "PLLECC", "Naive",
        ]
        assert all(row.finished for row in table.rows)

    def test_consensus_radius_diameter(self, example_graph):
        table = compare_algorithms(example_graph)
        for row in table.rows:
            if row.finished:
                assert row.radius == 3
                assert row.diameter == 5

    def test_pllecc_budget_dnf(self, social_graph):
        table = compare_algorithms(social_graph, pllecc_budget=1e-4)
        assert not table.row("PLLECC").finished

    def test_boundecc_budget_dnf(self, social_graph):
        table = compare_algorithms(social_graph, boundecc_max_bfs=1)
        assert not table.row("BoundECC").finished

    def test_every_row_finishes(self, example_graph):
        table = compare_algorithms(example_graph)
        assert all(row.finished for row in table.rows)

    def test_unknown_row(self, example_graph):
        table = compare_algorithms(example_graph)
        with pytest.raises(InvalidParameterError):
            table.row("Mystery")

    def test_render_table(self, example_graph):
        text = compare_algorithms(example_graph).render()
        assert "IFECC-1" in text and "n=13" in text

    def test_render_marks_dnf(self, social_graph):
        text = compare_algorithms(
            social_graph, pllecc_budget=1e-4
        ).render()
        assert "DNF" in text
