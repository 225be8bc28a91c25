"""Unit tests for probe numbers (Definition 4.1, Lemma 4.3, Table 2)."""

import numpy as np
import pytest

from repro.core.probes import probe_numbers
from repro.errors import InvalidParameterError
from repro.graph.generators import path_graph, star_graph


class TestLemma43Monotonicity:
    def test_paper_example(self, example_graph):
        profiles = probe_numbers(example_graph, [12, 6])  # v13, v7
        for profile in profiles:
            assert profile.is_monotone()

    def test_social_graph(self, social_graph):
        references = social_graph.top_degree_vertices(2)
        for profile in probe_numbers(social_graph, references):
            assert profile.is_monotone()

    def test_front_loaded(self, example_graph):
        # nodes at the tail of the FFO are never probed (Example 4.4)
        profiles = probe_numbers(example_graph, [12, 6])
        for profile in profiles:
            tail = profile.counts[len(profile.counts) // 2:]
            assert tail.sum() <= profile.counts[: 2].sum()


class TestProbeSemantics:
    def test_first_entry_bounded_by_territory(self, example_graph):
        # PN(v_1) counts at most one probe per territory member.
        profiles = probe_numbers(example_graph, [12, 6])
        for profile in profiles:
            assert profile.counts[0] <= profile.territory_size

    def test_territory_sizes_partition(self, example_graph):
        profiles = probe_numbers(example_graph, [12, 6])
        total = sum(p.territory_size for p in profiles)
        assert total == example_graph.num_vertices - 2

    def test_territories_match_example_46(self, example_graph):
        # V^{v13} has 8 members, V^{v7} has 3 (Example 4.6).
        profiles = probe_numbers(example_graph, [12, 6])
        assert profiles[0].territory_size == 8
        assert profiles[1].territory_size == 3

    def test_single_reference_probes_all_territory(self, example_graph):
        profiles = probe_numbers(example_graph, [12])
        assert profiles[0].territory_size == 12

    def test_star_no_probing_needed(self):
        # On a star with hub reference, Lemma 3.1 alone resolves leaves:
        # lb = max(1, 1-1) = 1, ub = 1+1 = 2 -> probing needed though.
        profiles = probe_numbers(star_graph(6), [0])
        assert profiles[0].is_monotone()

    def test_path_reference_end(self):
        profiles = probe_numbers(path_graph(6), [0])
        assert profiles[0].is_monotone()

    def test_probe_number_per_vertex(self, example_graph):
        # Table 2's row: one non-negative probe number per vertex.
        profile = probe_numbers(example_graph, [12])[0]
        assert sorted(profile.ffo.order.tolist()) == list(range(13))
        assert len(profile.counts) == 13
        assert np.all(profile.counts >= 0)

    def test_empty_references_rejected(self, example_graph):
        with pytest.raises(InvalidParameterError):
            probe_numbers(example_graph, [])
