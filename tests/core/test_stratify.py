"""Unit tests for stratification and the F1/F2 sets (Section 5)."""

import numpy as np
import pytest

from repro.core.stratify import stratify
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.generators import cycle_graph, path_graph, star_graph

from helpers import core_periphery


class TestLayers:
    def test_example_52_layers(self, example_graph):
        # Example 5.2: layers of z = v13.
        strat = stratify(example_graph, reference=12)
        assert strat.eccentricity == 4
        assert strat.layer(0).tolist() == [12]                    # {v13}
        assert strat.layer(1).tolist() == [6, 7, 8, 9, 10, 11]    # v7..v12
        assert strat.layer(2).tolist() == [2, 3, 4, 5]            # v3..v6
        assert strat.layer(3).tolist() == [1]                     # {v2}
        assert strat.layer(4).tolist() == [0]                     # {v1}

    def test_layer_sizes_sum_to_n(self, social_graph):
        strat = stratify(social_graph)
        assert strat.layer_sizes().sum() == social_graph.num_vertices

    def test_layers_partition(self, web_graph):
        strat = stratify(web_graph)
        seen = np.concatenate(
            [strat.layer(i) for i in range(strat.eccentricity + 1)]
        )
        assert sorted(seen.tolist()) == list(range(web_graph.num_vertices))

    def test_empty_layer_beyond_ecc(self, example_graph):
        strat = stratify(example_graph, reference=12)
        assert len(strat.layer(5)) == 0


class TestFarthestSets:
    def test_example_54(self, example_graph):
        # Example 5.4: F1 = {v1..v6}, F2 = {v1, v2} for z = v13.
        strat = stratify(example_graph, reference=12)
        assert strat.f1.tolist() == [0, 1, 2, 3, 4, 5]
        assert strat.f2.tolist() == [0, 1]

    def test_f2_subset_of_f1(self, social_graph):
        strat = stratify(social_graph)
        assert set(strat.f2.tolist()) <= set(strat.f1.tolist())

    def test_reference_not_in_f1(self, social_graph):
        strat = stratify(social_graph)
        assert strat.reference not in strat.f1.tolist()

    def test_thresholds_integer_exact(self):
        # path of length 6 from reference 0: ecc = 6, F1 = dist > 2,
        # F2 = dist > 4.
        strat = stratify(path_graph(7), reference=0)
        assert strat.f1.tolist() == [3, 4, 5, 6]
        assert strat.f2.tolist() == [5, 6]

    def test_core_periphery_f2_small(self):
        g = core_periphery(60, 40, seed=1)
        strat = stratify(g)
        # The motivating structure: F2 is a small fraction of n.
        assert len(strat.f2) < 0.3 * g.num_vertices

    def test_sizes_dict(self, social_graph):
        strat = stratify(social_graph)
        sizes = strat.sizes()
        assert sizes["n"] == social_graph.num_vertices
        assert sizes["F1"] == len(strat.f1)
        assert sizes["F2"] == len(strat.f2)


class TestStratifyDriver:
    def test_default_reference_is_highest_degree(self, example_graph):
        strat = stratify(example_graph)
        assert strat.reference == 12  # v13

    def test_explicit_reference(self, example_graph):
        assert stratify(example_graph, reference=6).reference == 6

    def test_uniform_cycle(self):
        strat = stratify(cycle_graph(10), reference=0)
        assert strat.eccentricity == 5
        assert len(strat.f1) > 0

    def test_star_degenerate(self):
        strat = stratify(star_graph(5), reference=0)
        assert strat.eccentricity == 1
        # every leaf is in F1 (dist 1 > 1/3) and in F2 (dist 1 > 2/3)
        assert strat.f1.tolist() == [1, 2, 3, 4]
        assert strat.f2.tolist() == [1, 2, 3, 4]

    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            stratify(g)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            stratify(Graph.from_edges([], num_vertices=0))

    def test_single_vertex(self):
        strat = stratify(Graph.from_edges([], num_vertices=1))
        assert strat.eccentricity == 0
        assert len(strat.f1) == 0
        assert len(strat.f2) == 0
