"""End-to-end flows: file in, answers out, across the public API."""

import numpy as np
import pytest

import repro
from repro.analysis.distribution import distribution_from_eccentricities
from repro.baselines.snap_diameter import snap_estimate_diameter
from repro.datasets.loader import load_dataset
from repro.graph.generators import paper_example_graph
from repro.graph.io import read_edge_list, write_edge_list

from helpers import bench_module


class TestFileToAnswer:
    def test_edge_list_round_trip_to_ecc(self, tmp_path):
        graph = paper_example_graph()
        path = tmp_path / "g.txt"
        write_edge_list(graph, path, header="paper example")
        loaded = read_edge_list(path)
        result = repro.compute_eccentricities(loaded)
        assert result.radius == 3
        assert result.diameter == 5

    def test_npz_cache_flow(self, tmp_path):
        store_bench = bench_module("bench_graph_store")
        graph = load_dataset("DBLP")
        path = tmp_path / "dblp.npz"
        store_bench.save_npz(graph, path)
        loaded = store_bench.load_npz(path)
        a = repro.compute_eccentricities(graph)
        b = repro.compute_eccentricities(loaded)
        np.testing.assert_array_equal(a.eccentricities, b.eccentricities)


class TestTopLevelApi:
    def test_package_exports(self):
        assert callable(repro.compute_eccentricities)
        assert callable(repro.approximate_eccentricities)
        assert callable(repro.stratify)
        assert repro.__version__

    def test_quickstart_docstring_flow(self):
        graph = repro.generators.paper_example_graph()
        result = repro.compute_eccentricities(graph)
        assert (result.radius, result.diameter) == (3, 5)

    def test_distribution_flow(self):
        graph = load_dataset("HUDO")
        result = repro.compute_eccentricities(graph)
        dist = distribution_from_eccentricities(result.eccentricities)
        assert dist.radius == result.radius
        assert dist.diameter == result.diameter
        assert dist.num_vertices == graph.num_vertices
        # small-world: the diameter tail is thin (Exp-3)
        assert dist.diameter_vertex_fraction() < 0.05

    def test_snap_case_study_flow(self):
        graph = load_dataset("TPD")
        exact = repro.compute_eccentricities(graph)
        estimate = snap_estimate_diameter(graph, sample_size=20, seed=3)
        assert estimate.diameter <= exact.diameter
        assert 0 < estimate.accuracy_against(exact.diameter) <= 100.0

    def test_per_component_on_dataset_with_noise(self):
        from repro.graph.builder import GraphBuilder

        base = load_dataset("DBLP")
        builder = GraphBuilder()
        src = np.repeat(
            np.arange(base.num_vertices, dtype=np.int64), base.degrees
        )
        builder.add_edge_arrays(src, base.indices.astype(np.int64))
        # add a detached triangle
        n = base.num_vertices
        builder.add_edges([(n, n + 1), (n + 1, n + 2), (n, n + 2)])
        noisy = builder.build()
        result = repro.eccentricities_per_component(noisy)
        assert result.exact
        assert result.eccentricities[n] == 1
