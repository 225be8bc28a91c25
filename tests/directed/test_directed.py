"""Tests for the directed-graph extension."""

import numpy as np
import pytest

from repro.directed.eccentricity import (
    directed_ifecc_eccentricities,
    directed_radius_and_diameter,
    directed_solver,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import (
    DirectedBFSOracle,
    backward_bfs,
    forward_bfs,
    is_strongly_connected,
)
from repro.errors import (
    DisconnectedGraphError,
    GraphConstructionError,
    InvalidVertexError,
)
from repro.graph.generators import cycle_graph
from helpers import (
    exact_eccentricities,
    in_neighbors,
    out_neighbors,
    random_connected_graph,
)


def directed_cycle(n):
    return DirectedGraph.from_arcs((i, (i + 1) % n) for i in range(n))


def random_strongly_connected(n, extra, seed):
    """A directed cycle over all vertices plus random extra arcs."""
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            arcs.append((int(u), int(v)))
    return DirectedGraph.from_arcs(arcs, num_vertices=n)


class TestDirectedGraph:
    def test_from_arcs(self):
        g = DirectedGraph.from_arcs([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_arcs == 2

    def test_direction_matters(self):
        g = DirectedGraph.from_arcs([(0, 1)])
        assert out_neighbors(g, 0).tolist() == [1]
        assert out_neighbors(g, 1).tolist() == []
        assert in_neighbors(g, 1).tolist() == [0]

    def test_duplicates_and_loops_dropped(self):
        g = DirectedGraph.from_arcs([(0, 1), (0, 1), (1, 1)])
        assert g.num_arcs == 1

    def test_out_in_degrees(self):
        g = directed_cycle(4)
        assert g.out_csr.degrees.tolist() == [1, 1, 1, 1]
        assert g.in_csr.degrees.tolist() == [1, 1, 1, 1]

    def test_from_undirected(self):
        g = DirectedGraph.from_undirected(cycle_graph(5))
        assert g.num_arcs == 10  # each edge = two arcs

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphConstructionError):
            DirectedGraph.from_arcs([(0, 7)], num_vertices=3)

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertexError):
            out_neighbors(directed_cycle(3), 5)


class TestTraversal:
    def test_forward_respects_direction(self):
        g = directed_cycle(5)
        assert forward_bfs(g, 0).tolist() == [0, 1, 2, 3, 4]

    def test_backward_is_reverse(self):
        g = directed_cycle(5)
        assert backward_bfs(g, 0).tolist() == [0, 4, 3, 2, 1]

    def test_forward_backward_duality(self):
        g = random_strongly_connected(30, 40, seed=1)
        for s in (0, 10, 29):
            fwd = forward_bfs(g, s)
            for t in (0, 15, 29):
                assert fwd[t] == backward_bfs(g, t)[s]

    def test_unreachable(self):
        g = DirectedGraph.from_arcs([(0, 1)], num_vertices=3)
        assert forward_bfs(g, 1)[0] == -1
        assert forward_bfs(g, 0)[2] == -1

    def test_strong_connectivity(self):
        assert is_strongly_connected(directed_cycle(6))
        assert not is_strongly_connected(
            DirectedGraph.from_arcs([(0, 1), (1, 2)])
        )

    def test_single_vertex_strongly_connected(self):
        assert is_strongly_connected(
            DirectedGraph.from_arcs([], num_vertices=1)
        )


class TestDirectedEccentricities:
    def test_cycle(self):
        result = directed_ifecc_eccentricities(directed_cycle(7))
        # every vertex's farthest is its predecessor: distance 6
        assert np.all(result.eccentricities == 6)

    def test_matches_oracle_on_random_digraphs(self):
        # Sparser than TestDirectedIFECC's corpus: long directed detours.
        for seed in range(6):
            g = random_strongly_connected(60, 25, seed)
            truth = naive_directed_eccentricities(g)
            result = directed_ifecc_eccentricities(g)
            np.testing.assert_array_equal(result.eccentricities, truth)

    def test_undirected_lift_matches_undirected(self):
        base = random_connected_graph(40, 30, seed=3)
        lifted = DirectedGraph.from_undirected(base)
        result = directed_ifecc_eccentricities(lifted)
        np.testing.assert_array_equal(
            result.eccentricities, exact_eccentricities(base)
        )

    def test_efficient_on_small_world_structure(self, social_graph):
        # On a core-periphery graph the bounds close fast, directed or
        # not: far fewer traversals than n.
        lifted = DirectedGraph.from_undirected(social_graph)
        result = directed_ifecc_eccentricities(lifted)
        assert result.num_bfs < social_graph.num_vertices

    def test_not_strongly_connected_rejected(self):
        # Every vertex has an out-arc, yet {2, 3} cannot reach {0, 1}.
        g = DirectedGraph.from_arcs([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        with pytest.raises(DisconnectedGraphError):
            directed_ifecc_eccentricities(g)

    def test_asymmetric_eccentricities(self):
        # a cycle with a chord: forward ecc differs from what the
        # undirected view would give
        g = DirectedGraph.from_arcs(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        )
        truth = naive_directed_eccentricities(g)
        result = directed_ifecc_eccentricities(g)
        np.testing.assert_array_equal(result.eccentricities, truth)
        assert truth[0] != truth[1] or truth[2] != truth[3]


class TestDirectedIFECC:
    def test_matches_oracle_on_random_digraphs(self):
        for seed in range(6):
            g = random_strongly_connected(40, 60, seed)
            truth = naive_directed_eccentricities(g)
            result = directed_ifecc_eccentricities(g)
            np.testing.assert_array_equal(result.eccentricities, truth)

    def test_cycle(self):
        result = directed_ifecc_eccentricities(directed_cycle(9))
        assert np.all(result.eccentricities == 8)

    def test_undirected_lift_matches(self):
        base = random_connected_graph(50, 40, seed=8)
        result = directed_ifecc_eccentricities(
            DirectedGraph.from_undirected(base)
        )
        np.testing.assert_array_equal(
            result.eccentricities, exact_eccentricities(base)
        )

    def test_not_strongly_connected_rejected(self):
        g = DirectedGraph.from_arcs([(0, 1), (1, 2)])
        with pytest.raises(DisconnectedGraphError):
            directed_ifecc_eccentricities(g)

    def test_single_vertex(self):
        g = DirectedGraph.from_arcs([], num_vertices=1)
        assert directed_ifecc_eccentricities(g).eccentricities.tolist() == [0]


class TestDirectedTelemetry:
    def test_traced_run_counts_each_traversal_once(self):
        import io

        from repro.obs.progress import ProgressMonitor
        from repro.obs.record import RunRecord
        from repro.obs.trace import MemorySink, tracing

        g = random_strongly_connected(120, 200, seed=4)
        sink = MemorySink()
        states = []
        monitor = ProgressMonitor(
            stream=io.StringIO(), callback=states.append, forward=sink
        )
        with tracing(monitor):
            result = directed_ifecc_eccentricities(g)
        # Every forward and backward probe runs on the shared engines:
        # one bfs.run event per single traversal, and the backward lane
        # sweeps' consumed lanes count one traversal each.
        runs = [e for e in sink.events if e["name"] == "bfs.run"]
        sweeps = [e for e in sink.events if e["name"] == "msbfs.run"]
        swept = sum(e["num_sources"] for e in sweeps)
        consumed = swept - result.counter.lanes_discarded
        assert sweeps and consumed > 0
        assert len(runs) + consumed == result.num_bfs
        assert states[-1].finished
        assert states[-1].traversals == result.num_bfs
        text = RunRecord.from_run(result, g, sink.events).summarize()
        assert "batch work:" in text
        convergence = text.split("convergence:")[1].split("batch work:")[0]
        rows = convergence.split("\n")[2:]
        table = [line for line in rows if line.startswith("  ")]
        assert int(table[-1].split()[0]) == result.num_bfs

    def test_counter_credit_matches_the_engine_events(self):
        from repro.counters import TraversalCounter
        from repro.obs.trace import MemorySink, tracing

        g = random_strongly_connected(40, 80, seed=3)
        counter = TraversalCounter()
        sink = MemorySink()
        with tracing(sink):
            forward_bfs(g, 2, counter=counter)
            backward_bfs(g, 5, counter=counter)
        assert counter.history == ["fwd:2", "bwd:5"]
        runs = [e for e in sink.events if e["name"] == "bfs.run"]
        assert [e["source"] for e in runs] == [2, 5]
        for key in ("edges_scanned", "edges_inspected"):
            assert getattr(counter, key) == sum(e[key] for e in runs)
        assert counter.vertices_visited == sum(e["visited"] for e in runs)


class TestDirectedAnytime:
    def test_steps_snapshots_sandwich_truth(self):
        g = random_strongly_connected(60, 90, seed=2)
        truth = naive_directed_eccentricities(g)
        solver = directed_solver(g)
        resolved_trace = []
        for snapshot in solver.steps():
            resolved_trace.append(snapshot.resolved)
            assert np.all(solver.bounds.lower <= truth)
            assert np.all(solver.bounds.upper >= truth)
        assert resolved_trace == sorted(resolved_trace)
        assert resolved_trace[-1] == g.num_vertices
        np.testing.assert_array_equal(solver.bounds.lower, truth)


class TestDirectedExtremes:
    def test_radius_and_diameter(self):
        for seed in range(4):
            g = random_strongly_connected(45, 70, seed)
            truth = naive_directed_eccentricities(g)
            extremes = directed_radius_and_diameter(g)
            assert extremes.radius == truth.min()
            assert extremes.diameter == truth.max()
            assert truth[extremes.center_vertex] == truth.min()
            assert truth[extremes.peripheral_vertex] == truth.max()

    def test_cycle(self):
        extremes = directed_radius_and_diameter(directed_cycle(8))
        assert extremes.radius == extremes.diameter == 7

    def test_early_stop_beats_full_sweep(self):
        g = random_strongly_connected(150, 400, seed=5)
        extremes = directed_radius_and_diameter(g)
        full = directed_ifecc_eccentricities(g)
        # Each directed extremes probe costs a forward + backward pair;
        # the run must still undercut directed IFECC's full solve.
        assert extremes.num_bfs < full.num_bfs

    def test_not_strongly_connected_rejected(self):
        g = DirectedGraph.from_arcs([(0, 1), (1, 2)])
        with pytest.raises(DisconnectedGraphError):
            directed_radius_and_diameter(g)


#: Digraphs whose out-degree reference, vertex 0, misses vertex 3 in one
#: direction only: 3 reaches 0 but is never reached from it (forward),
#: or is reached from 0 but never reaches it (backward).
REFERENCE_MISSES = {
    "forward": [(0, 1), (0, 2), (1, 0), (2, 0), (3, 0)],
    "backward": [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)],
}


@pytest.mark.parametrize("direction", sorted(REFERENCE_MISSES))
@pytest.mark.parametrize(
    "solve",
    [directed_ifecc_eccentricities, directed_radius_and_diameter],
    ids=["solver", "extremes"],
)
def test_reference_probe_miss_rejected(solve, direction):
    """The reference probe's reachability check, shared by the solver
    and the extremes driver, catches a miss in either direction."""
    g = DirectedGraph.from_arcs(REFERENCE_MISSES[direction])
    oracle = DirectedBFSOracle(g)
    assert oracle.select_references("degree", 1, 0).tolist() == [0]
    fwd, bwd = forward_bfs(g, 0), backward_bfs(g, 0)
    assert bool(np.any(fwd < 0)) == (direction == "forward")
    assert bool(np.any(bwd < 0)) == (direction == "backward")
    with pytest.raises(DisconnectedGraphError):
        solve(g)
