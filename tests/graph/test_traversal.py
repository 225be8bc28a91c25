"""Unit tests for the BFS engine, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.core.oracles import BFSOracle
from repro.core.solver import EccentricitySolver
from repro.errors import InvalidVertexError
from repro.graph.csr import Graph
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    bfs_distances,
    eccentricity_and_distances,
    multi_source_bfs,
)

from helpers import random_connected_graph


def scipy_distances(graph: Graph, source: int) -> np.ndarray:
    matrix = sp.csr_matrix(
        (
            np.ones(len(graph.indices), dtype=np.int8),
            graph.indices,
            graph.indptr,
        ),
        shape=(graph.num_vertices, graph.num_vertices),
    )
    dist = csgraph.shortest_path(
        matrix, method="D", unweighted=True, indices=source
    )
    out = np.where(np.isinf(dist), -1, dist).astype(np.int32)
    return out


class TestBFSDistances:
    def test_path_graph(self):
        g = path_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4, 5]

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 2, 1]

    def test_star_center_and_leaf(self):
        g = star_graph(5)
        assert bfs_distances(g, 0).tolist() == [0, 1, 1, 1, 1]
        leaf = bfs_distances(g, 1)
        assert leaf[0] == 1 and all(leaf[i] == 2 for i in range(2, 5))

    def test_unreachable_marked(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        dist = bfs_distances(g, 0)
        assert dist[2] == UNREACHED

    def test_source_distance_zero(self):
        g = grid_graph(3, 3)
        for s in range(9):
            assert bfs_distances(g, s)[s] == 0

    def test_matches_scipy_on_random_graphs(self):
        for seed in range(5):
            g = random_connected_graph(60, 40, seed)
            for source in (0, 17, 59):
                np.testing.assert_array_equal(
                    bfs_distances(g, source), scipy_distances(g, source)
                )

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            bfs_distances(path_graph(3), 3)

    def test_single_vertex(self):
        g = Graph.from_edges([], num_vertices=1)
        assert bfs_distances(g, 0).tolist() == [0]


class TestEccentricity:
    def test_path_ends(self):
        g = path_graph(7)
        assert eccentricity_and_distances(g, 0)[0] == 6
        assert eccentricity_and_distances(g, 3)[0] == 3

    def test_cycle_uniform(self):
        g = cycle_graph(8)
        assert all(eccentricity_and_distances(g, v)[0] == 4 for v in range(8))

    def test_returns_distances_too(self):
        g = star_graph(4)
        ecc, dist = eccentricity_and_distances(g, 0)
        assert ecc == 1
        assert dist.tolist() == [0, 1, 1, 1]

    def test_within_component_only(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert eccentricity_and_distances(g, 0)[0] == 1


def territories(graph, references):
    """The solver's territory of each reference (Algorithm 2, line 6)."""
    solver = EccentricitySolver(
        BFSOracle(graph), num_references=len(references)
    )
    solver.references = np.asarray(references)
    for _snapshot in solver._initialise():
        pass
    return {t.reference: t.members.tolist() for t in solver._territories}


class TestMultiSourceBFS:
    def test_single_source_matches_bfs(self):
        g = grid_graph(4, 4)
        dist = multi_source_bfs(g, [5])
        np.testing.assert_array_equal(dist, bfs_distances(g, 5))

    def test_nearest_source_distance(self):
        g = path_graph(10)
        dist = multi_source_bfs(g, [0, 9])
        expected = [min(v, 9 - v) for v in range(10)]
        assert dist.tolist() == expected

    # Which source is nearest is the solver's territory assignment; the
    # nearest-source BFS reports distances only.
    def test_owner_assignment(self):
        owned = territories(path_graph(10), [0, 9])
        assert 1 in owned[0]
        assert 8 in owned[9]

    def test_tie_goes_to_earlier_source(self):
        g = path_graph(5)
        assert 2 in territories(g, [0, 4])[0]  # equidistant: first wins
        assert 2 in territories(g, [4, 0])[4]

    def test_empty_sources(self):
        g = path_graph(3)
        counter = TraversalCounter()
        dist = multi_source_bfs(g, [], counter=counter)
        assert np.all(dist == UNREACHED)
        assert (counter.bfs_runs, counter.history) == (1, [])

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            multi_source_bfs(path_graph(3), [0, 7])

    def test_matches_min_over_singles(self):
        g = random_connected_graph(50, 30, seed=3)
        sources = [0, 10, 20]
        dist = multi_source_bfs(g, sources)
        singles = np.stack([bfs_distances(g, s) for s in sources])
        np.testing.assert_array_equal(dist, singles.min(axis=0))


class TestTraversalCounter:
    def test_counts_runs(self):
        g = path_graph(5)
        counter = TraversalCounter()
        bfs_distances(g, 0, counter=counter)
        bfs_distances(g, 1, counter=counter)
        assert counter.bfs_runs == 2

    def test_counts_vertices(self):
        g = path_graph(5)
        counter = TraversalCounter()
        bfs_distances(g, 0, counter=counter)
        assert counter.vertices_visited == 5

    def test_merge(self):
        a, b = TraversalCounter(), TraversalCounter()
        bfs_distances(path_graph(3), 0, counter=a)
        bfs_distances(path_graph(3), 0, counter=b)
        b.lanes_discarded = 3
        a.merge(b)
        assert a.bfs_runs == 2
        assert a.lanes_discarded == 3

    def test_totals(self):
        counter = TraversalCounter()
        counter.record(4, 3, label="bfs:0")
        counter.record_sweep(4, 5, 6, ["bfs:1"])
        counter.discard_lanes()
        # Every integer field, in declaration order; no history.
        assert list(counter.totals().items()) == [
            ("bfs_runs", 1),
            ("edges_scanned", 8),
            ("edges_inspected", 10),
            ("vertices_visited", 8),
            ("relaxations", 0),
            ("lanes_discarded", 1),
        ]

    def test_record_runs(self):
        counter = TraversalCounter()
        counter.record(5, 7, label="x", inspected=9, relaxations=2, runs=3)
        counter.record(0, 0, runs=0)
        assert counter.totals() == {
            "bfs_runs": 3,
            "edges_scanned": 5,
            "edges_inspected": 9,
            "vertices_visited": 7,
            "relaxations": 2,
            "lanes_discarded": 0,
        }
        assert counter.history == ["x"]

    def test_merge_adds_every_total(self):
        a, b = TraversalCounter(), TraversalCounter()
        a.record(1, 2, label="a", inspected=3, relaxations=4)
        b.record(10, 20, label="b", inspected=30, relaxations=40, runs=5)
        b.record_sweep(1, 1, 1, ["c"])
        b.discard_lanes()
        want = {k: a.totals()[k] + v for k, v in b.totals().items()}
        a.merge(b)
        assert a.totals() == want
        assert a.history == ["a", "b"]

    def test_history_labels(self):
        counter = TraversalCounter()
        bfs_distances(path_graph(3), 2, counter=counter)
        assert counter.history == ["bfs:2"]

    def test_consume_lanes_equals_consume_lane_calls(self):
        """Consuming k lanes at once equals k one-lane calls."""
        labels = [f"bfs:{s}" for s in (4, 1, 7, 2, 9)]
        one, bulk = TraversalCounter(), TraversalCounter()
        for counter in (one, bulk):
            counter.record_sweep(10, 20, 30, labels)
        for _ in range(3):
            one.consume_lanes(1)
        bulk.consume_lanes(3)
        bulk.consume_lanes(0)
        assert (bulk.bfs_runs, bulk.history) == (one.bfs_runs, one.history)
        assert bulk.history == labels[:3]
        one.consume_lanes(1)
        bulk.consume_lanes(1)
        assert (bulk.bfs_runs, bulk.history) == (one.bfs_runs, one.history)
        one.discard_lanes()
        bulk.discard_lanes()
        assert bulk == one and bulk.lanes_discarded == 1

    def test_consume_lanes_past_the_pending_lanes_raises(self):
        counter = TraversalCounter()
        counter.record_sweep(1, 1, 1, ["bfs:0"])
        with pytest.raises(IndexError):
            counter.consume_lanes(2)
        assert (counter.bfs_runs, counter.history) == (0, [])


class TestAllPairs:
    def test_yields_every_vertex(self):
        from helpers import all_pairs_distances

        g = grid_graph(3, 3)
        rows = dict(all_pairs_distances(g))
        assert sorted(rows) == list(range(9))
        for v, dist in rows.items():
            np.testing.assert_array_equal(dist, bfs_distances(g, v))

    def test_counter_counts_n_runs(self):
        from helpers import all_pairs_distances

        g = path_graph(6)
        counter = TraversalCounter()
        list(all_pairs_distances(g, counter=counter))
        assert counter.bfs_runs == 6

    def test_lazy_generator(self):
        from helpers import all_pairs_distances

        g = path_graph(50)
        gen = all_pairs_distances(g)
        v, dist = next(gen)
        assert v == 0
        assert dist[49] == 49
