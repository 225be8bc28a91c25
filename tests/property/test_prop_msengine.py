"""Property: lane width and direction never change MS-BFS answers.

The tentpole equivalence — ``MSBFSEngine`` ≡ looped single-source
``BFSEngine`` ≡ the seed-style dense lane reference — driven across
hypothesis-drawn graphs, batch sizes (up to one full lane word, and
past it through the batch seam's 64-lane groups) and forced
directions.  The reference
implementation here is deliberately the *dumbest* correct one: a dense
per-source loop over the plain traversal kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine
from repro.graph import batch_distance_rows
from repro.graph import msengine
from repro.graph.msengine import MSBFSEngine
from repro.sentinels import UNREACHED


@st.composite
def graph_and_sources(draw, max_n=48, max_batch=96):
    """A small random connected graph plus a source batch (duplicates
    and reorderings allowed) that can cross the 64-lane word boundary."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    sources = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=max_batch,
        )
    )
    return random_connected_graph(n, extra_edges=extra, seed=seed), sources


def looped_reference(graph, sources):
    engine = BFSEngine(graph)
    return np.stack([engine.run(int(s)).copy() for s in sources])


@settings(max_examples=60, deadline=None)
@given(gs=graph_and_sources())
def test_run_batch_equals_looped_engine(gs):
    graph, sources = gs
    # Distinct sources: one lane per source, any width the batch needs.
    src = np.unique(np.asarray(sources, dtype=np.int64))
    rows = MSBFSEngine(graph).run_batch(src)
    assert np.array_equal(rows, looped_reference(graph, src))


@settings(max_examples=30, deadline=None)
@given(gs=graph_and_sources(), mode=st.sampled_from(["top-down", "bottom-up"]))
def test_forced_directions_change_nothing(gs, mode):
    graph, sources = gs
    src = np.unique(np.asarray(sources, dtype=np.int64))
    forced = MSBFSEngine(graph).run_batch(src, mode=mode)
    hybrid = MSBFSEngine(graph).run_batch(src)
    assert np.array_equal(forced, hybrid)


@settings(max_examples=40, deadline=None)
@given(gs=graph_and_sources())
def test_batch_distance_rows_handles_duplicates(gs):
    graph, sources = gs
    # Raw batch, duplicates and all — the dedupe seam must replay
    # repeated sources from the shared sweep, preserving order.
    src = np.asarray(sources, dtype=np.int64)
    rows = batch_distance_rows(graph, src)
    assert np.array_equal(rows, looped_reference(graph, src))


@settings(max_examples=30, deadline=None)
@given(gs=graph_and_sources())
def test_ecc_batch_equals_rows_reduction(gs):
    graph, sources = gs
    src = np.unique(np.asarray(sources, dtype=np.int64))
    ecc = MSBFSEngine(graph).ecc_batch(src)
    rows = looped_reference(graph, src)
    expected = np.where(rows != UNREACHED, rows, 0).max(axis=1)
    assert np.array_equal(ecc, expected.astype(np.int32))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    num_edges=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_disconnected_graphs_unreached_lanes(n, num_edges, seed):
    # Possibly-disconnected graphs: unreached cells must stay UNREACHED
    # in every lane, exactly as the serial engine reports them.
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_vertices=n)
    for _ in range(num_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            builder.add_edges([(u, v)])
    graph = builder.build()
    src = np.arange(n, dtype=np.int64)
    rows = MSBFSEngine(graph).run_batch(src)
    assert np.array_equal(rows, looped_reference(graph, src))


@st.composite
def graph_sources_targets(draw):
    """A possibly-disconnected graph, distinct sources (up to 64, one
    full lane word) and a sorted target subset that may include or miss
    any source."""
    n = draw(st.integers(min_value=1, max_value=220))
    num_edges = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_vertices=n)
    for _ in range(num_edges):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            builder.add_edges([(u, v)])
    k = draw(st.integers(min_value=1, max_value=min(n, 64)))
    sources = rng.permutation(n)[:k]
    kind = draw(st.sampled_from(["empty", "single", "all", "random"]))
    if kind == "empty":
        targets = np.empty(0, dtype=np.int64)
    elif kind == "single":
        targets = np.array([int(rng.integers(0, n))])
    elif kind == "all":
        targets = np.arange(n)
    else:
        targets = np.flatnonzero(rng.random(n) < rng.random())
    return builder.build(), sources, targets


@settings(max_examples=60, deadline=None)
@given(
    gst=graph_sources_targets(),
    mode=st.sampled_from(["hybrid", "top-down", "bottom-up"]),
)
def test_column_batch_equals_restricted_rows(gst, mode):
    graph, sources, targets = gst
    engine = MSBFSEngine(graph)
    eccs, cols = engine.column_batch(sources, targets, mode=mode)
    rows = looped_reference(graph, sources)
    assert np.array_equal(cols, rows[:, targets])
    # Unreached cells hold -1 and the source's own 0: the row max is
    # the eccentricity within the source's component.
    assert np.array_equal(eccs, rows.max(axis=1))
    assert np.array_equal(engine.ecc_batch(sources, mode=mode), eccs)


@st.composite
def long_graph_sources_targets(draw):
    """A path of 250-700 vertices with short random chords (distances
    still cross 255 -> 256, often 511 -> 512), an optional second
    component, up to 64 distinct sources and a sorted target subset."""
    length = draw(st.integers(min_value=250, max_value=700))
    island = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = length + island
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges((i, i + 1) for i in range(length - 1))
    chords = rng.integers(0, length - 3, size=length // 20)
    spans = rng.integers(2, 4, size=len(chords))
    builder.add_edge_arrays(chords, chords + spans)
    builder.add_edges((length + i, length + i + 1) for i in range(island - 1))
    k = draw(st.integers(min_value=1, max_value=64))
    sources = rng.permutation(n)[:k]
    targets = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0)))
    return builder.build(), sources, targets


@settings(max_examples=15, deadline=None)
@given(
    gst=long_graph_sources_targets(),
    mode=st.sampled_from(["hybrid", "top-down", "bottom-up"]),
)
def test_bit_planes_across_powers_of_two(gst, mode):
    graph, sources, targets = gst
    engine = MSBFSEngine(graph)
    rows = engine.run_batch(sources, mode=mode)
    assert np.array_equal(rows, looped_reference(graph, sources))
    eccs, cols = engine.column_batch(sources, targets, mode=mode)
    assert np.array_equal(cols, rows[:, targets])
    assert np.array_equal(eccs, rows.max(axis=1))


@settings(max_examples=40, deadline=None)
@given(
    num_planes=st.integers(min_value=0, max_value=20),
    m=st.integers(min_value=0, max_value=40),
    k=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_plane_decode_equals_bitwise_sum(num_planes, m, k, seed):
    # Every accumulator width: int8 up to 7 planes, int16 up to 15,
    # int32 beyond.  Unreached cells hold no plane bit.
    rng = np.random.default_rng(seed)
    reached = rng.integers(0, 2**64, size=m, dtype=np.uint64)
    planes = rng.integers(0, 2**64, size=(num_planes, m), dtype=np.uint64)
    planes &= reached
    lanes = np.arange(k, dtype=np.uint64)[:, None]
    want = np.zeros((k, m), dtype=np.int64)
    for b in range(num_planes):
        want += ((planes[b] >> lanes) & np.uint64(1)).astype(np.int64) << b
    want[((reached >> lanes) & np.uint64(1)) == 0] = UNREACHED
    cols = msengine._decode_planes(planes, reached, k)
    assert cols.dtype == np.int32 and cols.flags.c_contiguous
    assert np.array_equal(cols, want)
