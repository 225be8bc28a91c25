"""Property: both BFS engines are exact on asymmetric digraphs.

A directed graph's engines read an (out-CSR, in-CSR) pair: top-down
levels expand out-arcs, bottom-up levels probe in-arcs, and the
backward engine swaps the pair.  Hypothesis draws non-symmetric
digraphs — often not strongly connected, with source-only and sink-only
vertices — and every engine entry point, in both directions and all
three modes, must equal a plain deque BFS.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directed.graph import DirectedGraph
from repro.graph.engine import BFSEngine
from repro.graph.msengine import MSBFSEngine

from helpers import in_neighbors, out_neighbors

MODES = ("hybrid", "top-down", "bottom-up")


def reference_bfs(graph, source, backward):
    """``dist(source, .)`` along the arcs (reversed when ``backward``)."""
    n = graph.num_vertices
    step = in_neighbors if backward else out_neighbors
    dist = np.full(n, -1, dtype=np.int32)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in step(graph, u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


@st.composite
def digraphs(draw, max_n=40):
    """A random digraph; some vertices lose all in-arcs (sources only)
    and some all out-arcs (sinks only)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    num_arcs = draw(st.integers(min_value=0, max_value=4 * n))
    arcs = rng.integers(0, n, size=(num_arcs, 2))
    role = rng.integers(0, 4, size=n)  # 0: source-only, 1: sink-only
    keep = (role[arcs[:, 1]] != 0) & (role[arcs[:, 0]] != 1)
    return DirectedGraph.from_arcs(
        (tuple(map(int, arc)) for arc in arcs[keep]), num_vertices=n
    )


@settings(max_examples=60, deadline=None)
@given(
    graph=digraphs(),
    backward=st.booleans(),
    mode=st.sampled_from(MODES),
)
def test_engine_run_matches_reference(graph, backward, mode):
    engine = BFSEngine(graph, backward=backward)
    for source in range(graph.num_vertices):
        dist = engine.run(source, mode=mode)
        want = reference_bfs(graph, source, backward)
        assert np.array_equal(dist, want)
        assert engine.last_ecc == want.max()


@settings(max_examples=60, deadline=None)
@given(
    graph=digraphs(),
    backward=st.booleans(),
    mode=st.sampled_from(MODES),
    data=st.data(),
)
def test_lane_engine_matches_reference(graph, backward, mode, data):
    n = graph.num_vertices
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=64,
            unique=True,
        )
    )
    targets = sorted(
        data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    )
    want = np.stack([reference_bfs(graph, s, backward) for s in sources])
    engine = MSBFSEngine(graph, backward=backward)
    assert np.array_equal(engine.run_batch(sources, mode=mode), want)
    eccs = engine.ecc_batch(sources, mode=mode)
    assert np.array_equal(eccs, want.max(axis=1))
    eccs, cols = engine.column_batch(sources, targets, mode=mode)
    assert np.array_equal(eccs, want.max(axis=1))
    assert np.array_equal(cols, want[:, targets])


@pytest.mark.parametrize("engine_type", [BFSEngine, MSBFSEngine])
def test_bottom_up_levels_read_in_arcs(engine_type):
    # An in-star: every leaf points at hub 0, which has no out-arcs.  A
    # bottom-up level that read out-arcs would find the hub (forward)
    # or the leaves (backward) with nothing to probe, and stop early.
    leaves = 12
    graph = DirectedGraph.from_arcs(
        [(leaf, 0) for leaf in range(1, leaves + 1)], num_vertices=leaves + 1
    )
    forward = engine_type(graph)
    backward = engine_type(graph, backward=True)
    if engine_type is BFSEngine:
        fwd = forward.run(1, mode="bottom-up")
        bwd = backward.run(0, mode="bottom-up")
    else:
        fwd = forward.run_batch([1], mode="bottom-up")[0]
        bwd = backward.run_batch([0], mode="bottom-up")[0]
    assert fwd.tolist() == [1, 0] + [-1] * (leaves - 1)
    assert bwd.tolist() == [0] + [1] * leaves
