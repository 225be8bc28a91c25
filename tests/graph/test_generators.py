"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph.generators import (
    balanced_tree,
    barabasi_albert,
    complete_graph,
    copying_model,
    cycle_graph,
    grid_graph,
    paper_example_graph,
    path_graph,
    star_graph,
    watts_strogatz,
)

from helpers import (
    attach_periphery,
    core_periphery,
    erdos_renyi,
    exact_eccentricities,
    has_edge,
    is_connected,
)


class TestDeterministicToys:
    def test_path(self):
        g = path_graph(5)
        assert g.num_vertices == 5 and g.num_edges == 4

    def test_cycle(self):
        g = cycle_graph(7)
        assert g.num_edges == 7
        assert all(g.degree(v) == 2 for v in range(7))

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_balanced_tree(self):
        g = balanced_tree(2, 3)
        assert g.num_vertices == 1 + 2 + 4 + 8
        assert g.num_edges == g.num_vertices - 1

    def test_balanced_tree_height_zero(self):
        assert balanced_tree(3, 0).num_vertices == 1

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            path_graph(0)
        with pytest.raises(InvalidParameterError):
            cycle_graph(2)
        with pytest.raises(InvalidParameterError):
            star_graph(1)
        with pytest.raises(InvalidParameterError):
            grid_graph(0, 3)


class TestRandomFamilies:
    def test_erdos_renyi_bounds(self):
        g = erdos_renyi(30, 0.2, seed=1)
        assert g.num_vertices == 30
        assert 0 < g.num_edges < 30 * 29 // 2

    def test_erdos_renyi_p_zero(self):
        assert erdos_renyi(10, 0.0, seed=1).num_edges == 0

    def test_erdos_renyi_p_one(self):
        assert erdos_renyi(6, 1.0, seed=1).num_edges == 15

    def test_barabasi_albert_connected(self):
        g = barabasi_albert(100, 2, seed=0)
        assert is_connected(g)

    def test_barabasi_albert_edge_count(self):
        n, attach = 80, 3
        g = barabasi_albert(n, attach, seed=2)
        seed_edges = (attach + 1) * attach // 2
        assert g.num_edges == seed_edges + (n - attach - 1) * attach

    def test_barabasi_albert_heavy_tail(self):
        g = barabasi_albert(400, 2, seed=3)
        assert g.degrees.max() >= 5 * np.median(g.degrees)

    def test_watts_strogatz_degree(self):
        g = watts_strogatz(50, 4, 0.0, seed=1)
        assert all(g.degree(v) == 4 for v in range(50))

    def test_watts_strogatz_rewiring_shrinks_diameter(self):
        lattice = watts_strogatz(120, 4, 0.0, seed=1)
        rewired = watts_strogatz(120, 4, 0.3, seed=1)
        d_lattice = exact_eccentricities(lattice).max()
        d_rewired = exact_eccentricities(rewired).max()
        assert d_rewired < d_lattice

    def test_copying_model_connected(self):
        g = copying_model(150, out_degree=3, seed=4)
        assert is_connected(g)

    def test_copying_model_heavy_tail(self):
        g = copying_model(400, out_degree=3, copy_probability=0.8, seed=5)
        assert g.degrees.max() >= 5 * np.median(g.degrees)

    def test_determinism(self):
        assert barabasi_albert(60, 2, seed=9) == barabasi_albert(60, 2, seed=9)
        assert copying_model(60, 2, seed=9) == copying_model(60, 2, seed=9)
        assert watts_strogatz(60, 4, 0.2, seed=9) == watts_strogatz(
            60, 4, 0.2, seed=9
        )

    def test_seed_changes_graph(self):
        assert barabasi_albert(60, 2, seed=1) != barabasi_albert(60, 2, seed=2)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            barabasi_albert(5, 0)
        with pytest.raises(InvalidParameterError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(InvalidParameterError):
            copying_model(3, out_degree=4)
        with pytest.raises(InvalidParameterError):
            erdos_renyi(5, 1.5)


class TestCorePeriphery:
    def test_connected(self):
        g = core_periphery(20, 10, seed=1)
        assert is_connected(g)

    def test_core_denser_than_periphery(self):
        g = core_periphery(20, 10, core_probability=0.5, seed=1)
        core_deg = g.degrees[:20].mean()
        peri_deg = g.degrees[20:].mean()
        assert core_deg > peri_deg

    def test_periphery_stretches_diameter(self):
        tight = core_periphery(20, 0, seed=2)
        loose = core_periphery(20, 15, seed=2)
        assert exact_eccentricities(loose).max() > exact_eccentricities(
            tight
        ).max()


class TestAttachPeriphery:
    def test_adds_vertices(self):
        base = complete_graph(10)
        g = attach_periphery(base, 3, 4, seed=1)
        assert g.num_vertices > base.num_vertices

    def test_preserves_base_edges(self):
        base = complete_graph(6)
        g = attach_periphery(base, 2, 3, seed=1)
        for u in range(6):
            for v in range(u + 1, 6):
                assert has_edge(g, u, v)

    def test_stretches_diameter(self):
        base = complete_graph(10)
        g = attach_periphery(base, 4, 10, seed=1)
        assert exact_eccentricities(g).max() > 1

    def test_zero_tendrils_identity(self):
        base = cycle_graph(8)
        assert attach_periphery(base, 0, 3, seed=1) == base


class TestPaperExample:
    def test_thirteen_nodes_fifteen_edges(self):
        g = paper_example_graph()
        assert g.num_vertices == 13
        assert g.num_edges == 15

    def test_example_21_degree_and_distance(self):
        from repro.graph.traversal import bfs_distances

        g = paper_example_graph()
        assert g.degree(9) == 2  # deg(v10) = 2
        assert bfs_distances(g, 9)[11] == 2  # dist(v10, v12) = 2

    def test_example_23_radius_diameter(self):
        ecc = exact_eccentricities(paper_example_graph())
        assert ecc.min() == 3 and ecc.max() == 5

    def test_example_23_v10_farthest_node(self):
        from repro.graph.traversal import bfs_distances

        g = paper_example_graph()
        dist = bfs_distances(g, 9)  # from v10
        assert dist.max() == 4
        assert dist[0] == 4  # the farthest node is v1
