"""Unit tests for the periphery constructions (handles, traps, branches)
that the dataset stand-ins are built from."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph.generators import (
    attach_branches,
    attach_deep_trap,
    attach_handles,
    barabasi_albert,
    complete_graph,
)
from repro.graph.traversal import bfs_distances

from helpers import exact_eccentricities, is_connected


@pytest.fixture(scope="module")
def core():
    return barabasi_albert(150, 3, seed=2)


class TestAttachHandles:
    def test_connected(self, core):
        assert is_connected(attach_handles(core, 6, 10, seed=1))

    def test_adds_path_vertices(self, core):
        g = attach_handles(core, 4, 10, seed=1)
        added = g.num_vertices - core.num_vertices
        assert added >= 4 * 5  # at least the shortest jittered lengths

    def test_handle_interior_degree_two(self, core):
        g = attach_handles(core, 5, 8, seed=1)
        interior = g.degrees[core.num_vertices:]
        assert np.all(interior == 2)  # pure path vertices

    def test_no_cut_vertex_witnesses(self, core):
        # removing any single handle vertex keeps the graph connected
        # (handles are cycles through the core) — spot-check by
        # verifying each handle endpoint pair is 2-connected via the
        # handle: the handle interior reaches the core both ways.
        g = attach_handles(core, 3, 9, seed=1)
        interior_start = core.num_vertices
        dist = bfs_distances(g, interior_start)
        assert np.all(dist[: core.num_vertices] >= 1)

    def test_stretches_diameter(self, core):
        base_dia = int(exact_eccentricities(core).max())
        g = attach_handles(core, 5, 16, seed=1)
        assert int(exact_eccentricities(g).max()) > base_dia

    def test_validation(self, core):
        with pytest.raises(InvalidParameterError):
            attach_handles(core, -1, 10)
        with pytest.raises(InvalidParameterError):
            attach_handles(core, 2, 2)  # max_length < 3
        with pytest.raises(InvalidParameterError):
            attach_handles(complete_graph(4), 3, 10)  # too many handles

    def test_zero_handles_identity(self, core):
        assert attach_handles(core, 0, 10, seed=1) == core


class TestAttachDeepTrap:
    def test_connected(self, core):
        assert is_connected(attach_deep_trap(core, 12))

    def test_trap_sets_diameter(self, core):
        g = attach_deep_trap(core, depth=20, branch_length=3)
        ecc = exact_eccentricities(g)
        base_dia = int(exact_eccentricities(core).max())
        assert int(ecc.max()) >= 20  # the spine dominates

    def test_spine_depth(self, core):
        g = attach_deep_trap(core, depth=15, branch_length=0)
        # exactly 15 new vertices, forming a path
        assert g.num_vertices == core.num_vertices + 15
        tip = g.num_vertices - 1
        assert g.degree(tip) == 1

    def test_side_branches_on_lower_half(self, core):
        with_branches = attach_deep_trap(core, depth=10, branch_length=2)
        without = attach_deep_trap(core, depth=10, branch_length=0)
        extra = with_branches.num_vertices - without.num_vertices
        assert extra == (10 - 10 // 2) * 2

    def test_explicit_anchor(self, core):
        g = attach_deep_trap(core, depth=5, anchor=0)
        assert g.degree(0) == core.degree(0) + 1

    def test_validation(self, core):
        with pytest.raises(InvalidParameterError):
            attach_deep_trap(core, depth=0)
        with pytest.raises(InvalidParameterError):
            attach_deep_trap(core, depth=3, branch_length=-1)


class TestAttachBranches:
    def test_connected(self, core):
        assert is_connected(attach_branches(core, 10, 6, seed=3))

    def test_branch_count(self, core):
        g = attach_branches(core, 8, 5, seed=3)
        # each branch adds 3..5 vertices
        added = g.num_vertices - core.num_vertices
        assert 8 * 3 <= added <= 8 * 5

    def test_distinct_anchors(self, core):
        g = attach_branches(core, 12, 4, seed=3)
        # the 12 anchors each gained exactly one incident branch edge
        gained = g.degrees[: core.num_vertices] - core.degrees
        assert int(gained.sum()) == 12
        assert int(gained.max()) == 1

    def test_anchor_pool_restriction(self, core):
        trapped = attach_deep_trap(core, depth=8)
        g = attach_branches(
            trapped, 5, 4, seed=3, max_anchor_id=core.num_vertices
        )
        # no branch may hang off a trap vertex
        gained = (
            g.degrees[core.num_vertices: trapped.num_vertices]
            - trapped.degrees[core.num_vertices:]
        )
        assert int(gained.sum()) == 0

    def test_seeded(self, core):
        assert attach_branches(core, 5, 6, seed=4) == attach_branches(
            core, 5, 6, seed=4
        )

    def test_validation(self, core):
        with pytest.raises(InvalidParameterError):
            attach_branches(core, -1, 5)
        with pytest.raises(InvalidParameterError):
            attach_branches(core, 3, 2)
        with pytest.raises(InvalidParameterError):
            attach_branches(core, 4, 5, max_anchor_id=3)
