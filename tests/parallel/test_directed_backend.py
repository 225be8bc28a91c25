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
from repro.directed.traversal import DirectedBFSOracle, forward_bfs
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
        numpy_ecc = DirectedBFSOracle(graph).ecc_all()
        oracle = DirectedBFSOracle(graph, backend="process", workers=2)
        assert np.array_equal(oracle.ecc_all(), numpy_ecc)

    def test_source_probe_matches_numpy(self, graph):
        base = DirectedBFSOracle(graph)
        oracle = DirectedBFSOracle(graph, backend="process", workers=2)
        for source in (0, 9, 148):
            ecc_n, fwd_n, bwd_n = base.source_probe(source)
            ecc_p, fwd_p, bwd_p = oracle.source_probe(source)
            assert ecc_n == ecc_p
            assert np.array_equal(fwd_n, fwd_p)
            assert np.array_equal(bwd_n, bwd_p)

    def test_ecc_all_raises_on_weakly_connected(self):
        # A one-way path is weakly but not strongly connected: the
        # -1 sentinel from the workers must surface as the same error
        # the numpy path raises.
        graph = DirectedGraph.from_arcs([(0, 1), (1, 2)], num_vertices=3)
        with pytest.raises(DisconnectedGraphError):
            DirectedBFSOracle(graph).ecc_all()
        oracle = DirectedBFSOracle(graph, backend="process", workers=1)
        with pytest.raises(DisconnectedGraphError):
            oracle.ecc_all()


class TestAlgorithmsAcrossBackends:
    def test_naive_matches(self, graph):
        assert np.array_equal(
            naive_directed_eccentricities(graph),
            naive_directed_eccentricities(
                graph, backend="process", workers=2
            ),
        )
