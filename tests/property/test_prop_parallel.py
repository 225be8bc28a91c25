"""Property: worker count never changes results (workers=1 ≡ workers=4).

Chunking policy depends on the worker count, so these properties drive
the pools with hypothesis-drawn source lists (duplicates, reorderings,
empty) and demand bitwise-equal outputs and counter totals — the
parallel analogue of the engine's "direction changes speed, never
answers" contract.  The in-process ``ecc_batch`` and ``distance_rows``
entry points are held to the same answers and totals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from repro.counters import TraversalCounter
from repro.graph.batch import distance_rows, ecc_batch
from repro.parallel.pool import shutdown_pools

_N = 180


@pytest.fixture(scope="module")
def pools():
    # Two copies of one graph, so each keeps its own cached pool — a
    # pool per example would dominate the property's runtime with
    # process startup.
    solo = random_connected_graph(_N, extra_edges=120, seed=77)
    quad = random_connected_graph(_N, extra_edges=120, seed=77)
    yield solo, quad
    shutdown_pools()


def _same_everywhere(pools, sources):
    """Every entry point, backend and worker count gives the same
    eccentricities and counter totals."""
    solo, quad = pools
    src = np.asarray(sources, dtype=np.int64)
    runs = {
        "numpy": lambda c: ecc_batch(solo, src, c),
        "rows": lambda c: distance_rows(solo, src, c).max(axis=1),
        "solo": lambda c: ecc_batch(solo, src, c, "process", workers=1),
        "quad": lambda c: ecc_batch(quad, src, c, "process", workers=4),
    }
    results = {}
    for name, run in runs.items():
        counter = TraversalCounter()
        ecc = run(counter).tolist()
        totals = (
            counter.bfs_runs,
            counter.edges_scanned,
            counter.edges_inspected,
            counter.vertices_visited,
        )
        results[name] = (ecc, totals)
    want = results.pop("numpy")
    assert want[1][0] == len(src)
    for name, got in results.items():
        assert got == want, name


sources_strategy = st.lists(
    st.integers(min_value=0, max_value=_N - 1), min_size=0, max_size=40
)


@settings(max_examples=20, deadline=None)
@given(sources=sources_strategy)
def test_eccentricities_independent_of_worker_count(pools, sources):
    _same_everywhere(pools, sources)


@settings(max_examples=10, deadline=None)
@given(sources=st.lists(
    st.integers(min_value=0, max_value=_N - 1), min_size=0, max_size=100
))
def test_msbfs_independent_of_worker_count(pools, sources):
    # Batches past 8 sources run as MS-BFS lane sweeps.
    _same_everywhere(pools, sources)
