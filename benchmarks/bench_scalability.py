"""Scalability — IFECC's cost as the graph grows (the paper's headline).

The paper's claim is that IFECC scales to billion-edge graphs because
its cost is (#BFS) x O(m + n) with a small, slowly-growing #BFS.  This
bench sweeps synthetic web graphs across a 16x size range and fits the
growth of IFECC's wall time and BFS count.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.ifecc import compute_eccentricities
from repro.graph.components import largest_connected_component
from repro.graph.generators import copying_model_edges
from repro.obs.trace import Stopwatch

from bench_common import record

SIZES = (2_000, 4_000, 8_000, 16_000, 32_000)
_rows = {}


def _make_graph(n: int):
    """A web stand-in of ``n`` core pages: the copying-model core with a
    deep trap and ``n // 50`` branches grafted on, assembled once."""
    edges = copying_model_edges(n, out_degree=4, copy_probability=0.65, seed=n)
    edges.graft_deep_trap(depth=24, branch_length=4)
    edges.graft_branches(
        count=n // 50, max_depth=12, seed=n + 1, max_anchor_id=n
    )
    graph, _ids = largest_connected_component(edges.graph())
    return graph


@pytest.mark.parametrize("n", SIZES)
def test_scaling(benchmark, n):
    def run():
        graph = _make_graph(n)
        watch = Stopwatch()
        result = compute_eccentricities(graph)
        elapsed = watch.elapsed()
        return graph.num_vertices, graph.num_edges, elapsed, result.num_bfs

    _rows[n] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_zz_report_and_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'n':>8} {'m':>9} {'time (s)':>9} {'#BFS':>6} {'us/edge/BFS':>12}"]
    for n in SIZES:
        vertices, edges, elapsed, bfs = _rows[n]
        per_edge = 1e6 * elapsed / (edges * bfs)
        lines.append(
            f"{vertices:>8} {edges:>9} {elapsed:>9.3f} {bfs:>6} "
            f"{per_edge:>12.3f}"
        )
    record("scalability", lines)

    smallest = _rows[SIZES[0]]
    largest = _rows[SIZES[-1]]
    size_ratio = largest[1] / smallest[1]          # edge growth (~16x)
    time_ratio = largest[2] / max(smallest[2], 1e-9)
    bfs_ratio = largest[3] / max(smallest[3], 1)
    lines = [
        f"edges x{size_ratio:.1f} -> time x{time_ratio:.1f}, "
        f"#BFS x{bfs_ratio:.2f}"
    ]
    record("scalability_summary", lines)

    # Near-linear scaling: time grows at most ~quadratically slower
    # than the edge count would in a naive |V|-BFS sweep, and the BFS
    # count grows sublinearly in n.
    assert bfs_ratio < size_ratio / 2
    assert time_ratio < size_ratio * 4
