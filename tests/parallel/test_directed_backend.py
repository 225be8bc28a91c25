"""Directed process backend ≡ numpy backend, bit for bit.

The engine's contract extended to digraphs: the workers inherit both
CSR directions, so the batch primitive — forward eccentricities — must
agree exactly with the in-process backend, including counter totals.
Probes stay in-process under every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters import TraversalCounter
from repro.directed.eccentricity import naive_directed_eccentricities
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import (
    DirectedBFSOracle,
    backward_bfs,
    forward_bfs,
)
from repro.errors import DisconnectedGraphError
from repro.graph.batch import ecc_batch
from repro.parallel.pool import shutdown_pools

_N = 150


def _strongly_connected_graph(n=_N, chords=220, seed=5):
    """Directed ring (guarantees strong connectivity) + random chords."""
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    arcs += [
        (int(a), int(b))
        for a, b in rng.integers(0, n, size=(chords, 2))
        if a != b
    ]
    return DirectedGraph.from_arcs(arcs, num_vertices=n)


@pytest.fixture(scope="module")
def graph():
    return _strongly_connected_graph()


@pytest.fixture(autouse=True, scope="module")
def _teardown_module_pools():
    yield
    shutdown_pools()


def _pooled(graph, sources, counter=None):
    return ecc_batch(graph, sources, counter, backend="process", workers=2)


class TestPoolDirectedEntryPoints:
    def test_directed_eccentricities_match_serial(self, graph):
        serial = np.asarray(
            [int(forward_bfs(graph, v).max()) for v in range(_N)],
            dtype=np.int32,
        )
        assert np.array_equal(_pooled(graph, np.arange(_N)), serial)

    def test_counter_totals_match_serial(self, graph):
        # Lane sweeps scan other arcs than a per-source loop, as on
        # undirected graphs; test_counters_independent_of_backend pins
        # all four counters across backends.
        pooled = TraversalCounter()
        _pooled(graph, np.arange(_N), counter=pooled)
        assert pooled.bfs_runs == _N


class TestOracleBackend:
    def test_ecc_all_matches_numpy(self, graph):
        # The oracle's in-process batch equals the pool's.
        numpy_ecc = DirectedBFSOracle(graph).ecc_all()
        assert np.array_equal(_pooled(graph, np.arange(_N)), numpy_ecc)

    def test_source_probe_matches_numpy(self, graph):
        # Probes run in-process even once the graph has a live pool.
        _pooled(graph, [0])
        oracle = DirectedBFSOracle(graph)
        for source in (0, 9, 148):
            ecc, fwd, bwd = oracle.source_probe(source)
            assert ecc == int(forward_bfs(graph, source).max())
            assert np.array_equal(fwd, forward_bfs(graph, source))
            assert np.array_equal(bwd, backward_bfs(graph, source))

    def test_ecc_all_raises_on_weakly_connected(self):
        # A one-way path is weakly but not strongly connected: the
        # oracle refuses it, and the pool's forward sweeps agree with
        # the in-process ones on it.
        graph = DirectedGraph.from_arcs([(0, 1), (1, 2)], num_vertices=3)
        with pytest.raises(DisconnectedGraphError):
            DirectedBFSOracle(graph).ecc_all()
        pooled = ecc_batch(graph, [0, 1, 2], backend="process", workers=1)
        assert np.array_equal(pooled, ecc_batch(graph, [0, 1, 2]))


class TestAlgorithmsAcrossBackends:
    def test_naive_matches(self, graph):
        assert np.array_equal(
            naive_directed_eccentricities(graph),
            _pooled(graph, np.arange(_N)),
        )
