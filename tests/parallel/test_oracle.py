"""Process backend behind the oracles: golden equivalence and plumbing.

The golden file captured from the seed implementation
(``tests/data/golden_ifecc.json``) pins IFECC's observable behaviour;
running the same corpus on an oracle with ``backend="process"`` must
reproduce it bit for bit — the backend changes where batches execute,
never answers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from core.test_solver_equivalence import GOLDEN_PATH, build_corpus
import repro
from repro.core.oracles import BFSOracle
from repro.core.solver import EccentricitySolver
from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.errors import InvalidParameterError
from repro.graph.batch import distance_rows, ecc_batch
from repro.graph.generators import barabasi_albert
from repro.parallel import shutdown_pools


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


def _process_solver(graph, counter=None):
    return EccentricitySolver(
        BFSOracle(graph, backend="process", workers=2),
        num_references=1,
        counter=counter,
    )


@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_ifecc_golden_with_process_backend(name, golden):
    graph = build_corpus()[name]
    counter = TraversalCounter()
    solver = _process_solver(graph, counter)
    for _ in solver.steps():
        pass
    want = golden[name]["r1_memo0"]
    assert solver.bounds.eccentricities().tolist() == want["ecc"]
    assert counter.bfs_runs == want["num_bfs"]
    assert counter.edges_scanned == want["edges_scanned"]


@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_kifecc_golden_with_process_backend(name, golden):
    # kIFECC(k=5) is the solver stopped after 1 + 5 traversals.
    graph = build_corpus()[name]
    result = _process_solver(graph).run_budgeted(max_bfs=6)
    want = golden[name]["kifecc_k5"]
    assert result.lower.tolist() == want["est"]
    assert result.num_bfs == want["num_bfs"]
    assert bool(result.exact) == want["exact"]


class TestBatchedEntryPoints:
    def test_ecc_all_matches_numpy_backend(self):
        graph = build_corpus()["ba150"]
        numpy_oracle = BFSOracle(graph)
        process_oracle = BFSOracle(graph, backend="process", workers=2)
        assert np.array_equal(
            process_oracle.ecc_all(), numpy_oracle.ecc_all()
        )

    def test_single_probes_stay_sequential(self):
        # source/sweep probes must not start a pool at all.
        graph = build_corpus()["paper"]
        before = set(multiprocessing.active_children())
        oracle = BFSOracle(graph, backend="process", workers=2)
        ecc, dist, rdist = oracle.source_probe(0)
        assert dist is rdist
        for sources in ([0], [0, 1, 2]):
            eccs, cols = oracle.sweep_batch(sources, [0, 1])
            assert eccs[0] == ecc
            assert cols[0].tolist() == dist[[0, 1]].tolist()
        assert set(multiprocessing.active_children()) == before

    def test_close_then_reuse_rebuilds_pool(self):
        graph = build_corpus()["paper"]
        oracle = BFSOracle(graph, backend="process", workers=1)
        first = oracle.ecc_all()
        shutdown_pools()
        assert np.array_equal(oracle.ecc_all(), first)
        shutdown_pools()


@pytest.fixture(scope="module", params=["undirected", "directed"])
def lane_graph(request):
    # n >= 4,096 so a 300-source batch plans 256-lane sweeps.
    graph = barabasi_albert(4096, 3, seed=5)
    if request.param == "directed":
        return DirectedGraph.from_undirected(graph)
    return graph


def _distinct_sources(graph):
    rng = np.random.default_rng(11)
    return rng.choice(graph.num_vertices, size=300, replace=False)


def _repeated_sources(graph):
    rng = np.random.default_rng(12)
    distinct = rng.choice(graph.num_vertices, size=100, replace=False)
    return rng.permutation(np.concatenate([distinct, distinct]))


def _row_eccentricities(graph, src, counter):
    # A row's largest distance is its source's eccentricity (unreached
    # vertices are -1, the source itself 0).
    return distance_rows(graph, src, counter).max(axis=1)


#: The in-process batch entry points, each reduced to eccentricities.
_IN_PROCESS = {
    "ecc_batch": ecc_batch,
    "distance_rows": _row_eccentricities,
}


def _totals(counter):
    return (
        counter.bfs_runs,
        counter.edges_scanned,
        counter.edges_inspected,
        counter.vertices_visited,
    )


@pytest.mark.parametrize(
    "sources", [_distinct_sources, _repeated_sources],
    ids=["distinct", "repeated"],
)
@pytest.mark.parametrize("primitive", sorted(_IN_PROCESS))
def test_counters_independent_of_backend(lane_graph, primitive, sources):
    src = sources(lane_graph)
    in_process, pooled = TraversalCounter(), TraversalCounter()
    got = _IN_PROCESS[primitive](lane_graph, src, in_process)
    want = ecc_batch(lane_graph, src, pooled, backend="process", workers=2)
    assert np.array_equal(got, want)
    assert _totals(in_process) == _totals(pooled)
    assert in_process.bfs_runs == len(src)


#: Every entry point that takes ``backend=``.
_BACKEND_ENTRY_POINTS = {
    "BFSOracle": lambda: BFSOracle(
        build_corpus()["paper"], backend="proces"
    ),
    "ecc_batch": lambda: ecc_batch(
        build_corpus()["paper"], [0], backend="proces"
    ),
}


class TestBackendFlag:
    @pytest.mark.parametrize("entry", sorted(_BACKEND_ENTRY_POINTS))
    def test_unknown_backend_rejected(self, entry):
        with pytest.raises(InvalidParameterError, match="backend"):
            _BACKEND_ENTRY_POINTS[entry]()

    def test_bad_worker_count_rejected_before_any_batch(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            BFSOracle(build_corpus()["paper"], backend="process", workers=0)

    def test_numpy_backend_never_imports_parallel_pool(self):
        # A fresh interpreter: this one has imported the pool already.
        script = (
            "import sys\n"
            "from repro.baselines.naive import naive_eccentricities\n"
            "from repro.core.oracles import BFSOracle\n"
            "from repro.graph.generators import paper_example_graph\n"
            "graph = paper_example_graph()\n"
            "BFSOracle(graph).ecc_all()\n"
            "naive_eccentricities(graph)\n"
            "assert 'repro.parallel.pool' not in sys.modules\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=120
        )
