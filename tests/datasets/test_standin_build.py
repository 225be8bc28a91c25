"""A stand-in is one edge list assembled once.

``build_standin`` grafts the periphery onto the family core's edge list
(:class:`repro.graph.generators.EdgeList`) and assembles the CSR once;
the public ``attach_*`` functions run the same grafts on a finished
graph.  These tests pin the two routes to the same graphs, check that
the list's degrees stay exact through every graft, and bound the
build's memory peak by a multiple of the result's CSR bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import loader
from repro.datasets.loader import build_standin, scaled_spec
from repro.datasets.registry import DatasetSpec, get_spec
from repro.errors import InvalidParameterError
from repro.graph.components import largest_connected_component
from repro.graph.csr import Graph
from repro.graph.generators import (
    EdgeList,
    attach_branches,
    attach_deep_trap,
    attach_handles,
    barabasi_albert,
    barabasi_albert_edges,
    copying_model,
    copying_model_edges,
)
from repro.obs.benchguard import BUILD_PEAK_LIMIT

from helpers import is_connected, traced_peak_bytes

#: One registry entry per (family, periphery) pair.
RECIPES = {
    ("ba", "handles"): "DBLP",
    ("ba", "trap"): "TWIT",
    ("copy", "handles"): "HUDO",
    ("copy", "trap"): "UKUN",
}


def _small_spec(family: str, periphery: str, seed: int) -> DatasetSpec:
    spec = get_spec(RECIPES[(family, periphery)])
    assert (spec.family, spec.periphery) == (family, periphery)
    return dataclasses.replace(
        spec,
        standin_n=150 + 37 * seed,
        periphery_size=4 + seed,
        seed=spec.seed + 1000 * seed,
    )


def _core(spec: DatasetSpec) -> Graph:
    if spec.family == "ba":
        return barabasi_albert(spec.standin_n, spec.attach, seed=spec.seed)
    return copying_model(
        spec.standin_n, spec.attach, copy_probability=0.65, seed=spec.seed
    )


def _grafted(spec: DatasetSpec, core: Graph) -> Graph:
    """The periphery one public step at a time, a CSR built after each."""
    if spec.periphery == "handles":
        grown = attach_handles(
            core,
            num_handles=spec.periphery_size,
            max_length=spec.periphery_depth,
            seed=spec.seed + 7,
        )
    else:
        trapped = attach_deep_trap(
            core, depth=spec.periphery_depth, branch_length=4
        )
        grown = attach_branches(
            trapped,
            count=spec.periphery_size,
            max_depth=max(3, spec.periphery_depth // 2),
            seed=spec.seed + 7,
            max_anchor_id=spec.standin_n,
        )
    return grown


def _step_by_step(spec: DatasetSpec, core: Graph) -> Graph:
    graph, _ids = largest_connected_component(_grafted(spec, core))
    return graph


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family, periphery", sorted(RECIPES))
def test_one_build_equals_step_by_step(family, periphery, seed):
    spec = _small_spec(family, periphery, seed)
    assert build_standin(spec) == _step_by_step(spec, _core(spec))


def test_disconnected_assembly_keeps_largest_component(monkeypatch):
    """The cores are connected by construction, so a core with a
    second, smaller component forces the extraction path."""
    spec = _small_spec("ba", "trap", 1)
    core = barabasi_albert(spec.standin_n, spec.attach, seed=spec.seed)
    # A 5-vertex path among the core's ids, detached from the rest:
    # ids stay below standin_n, so the grafts' anchor pools cover it.
    first = core.num_vertices
    island = [(first + i, first + i + 1) for i in range(4)]
    with_island = Graph.from_edges(list(core.edges()) + island, first + 5)
    assert not is_connected(with_island)
    spec = dataclasses.replace(spec, standin_n=with_island.num_vertices)
    monkeypatch.setattr(
        loader,
        "barabasi_albert_edges",
        lambda n, attach, seed: EdgeList.of_graph(with_island),
    )
    built = build_standin(spec)
    grown = _grafted(spec, with_island)
    assert is_connected(built)
    assert built.num_vertices < grown.num_vertices
    assert built == largest_connected_component(grown)[0]


class TestEdgeList:
    def test_degrees_stay_exact_through_every_graft(self):
        edges = copying_model_edges(400, 4, 0.7, seed=3)
        edges.graft_deep_trap(12, branch_length=3)
        edges.graft_branches(9, 6, seed=1, max_anchor_id=400)
        edges.graft_handles(5, 8, seed=2)
        degrees = edges.degrees.copy()
        n = edges.num_vertices
        graph = edges.graph()
        assert graph.num_vertices == n
        np.testing.assert_array_equal(graph.degrees, degrees)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: barabasi_albert_edges(300, 3, seed=1),
            lambda: copying_model_edges(300, 3, 1.0, seed=5),
            lambda: copying_model_edges(300, 2, 0.0, seed=4),
        ],
        ids=["ba", "copy-always", "copy-never"],
    )
    def test_cores_hand_over_each_edge_once(self, make):
        edges = make()
        degrees = edges.degrees.copy()
        graph = edges.graph()
        # A repeated edge or a self-loop would count into the list's
        # degrees but collapse in the assembly.
        np.testing.assert_array_equal(graph.degrees, degrees)

    def test_of_graph_round_trips(self):
        graph = barabasi_albert(200, 2, seed=7)
        edges = EdgeList.of_graph(graph)
        np.testing.assert_array_equal(edges.degrees, graph.degrees)
        assert edges.graph() == graph

    def test_zero_grafts_keep_trailing_isolated_vertices(self):
        graph = Graph.from_edges([(0, 1), (1, 2)], num_vertices=5)
        assert attach_handles(graph, 0, 5).num_vertices == 5
        assert attach_branches(graph, 0, 5).num_vertices == 5

    def test_spent_list_raises(self):
        edges = barabasi_albert_edges(50, 2, seed=1)
        edges.graph()
        with pytest.raises(InvalidParameterError):
            edges.graph()
        with pytest.raises(InvalidParameterError):
            edges.graft_deep_trap(3)


class TestBuildPeak:
    """A stand-in build's memory is bounded by its result's size."""

    #: UKUN at this scale (n = 6,774) builds in about 1 s under tracing.
    SCALE = 0.2

    def test_ukun_peak_within_limit(self):
        spec = scaled_spec(get_spec("UKUN"), self.SCALE)
        graph = build_standin(spec)
        peak = traced_peak_bytes(lambda: build_standin(spec))
        assert peak <= BUILD_PEAK_LIMIT * graph.memory_bytes(), (
            peak / graph.memory_bytes()
        )
