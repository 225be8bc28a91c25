"""Ablation — MS-BFS (reference [35]) as the "fast naive" baseline.

Even with bit-parallel multi-source BFS (Then et al., VLDB'14) speeding
the |V|-BFS sweep up by the lane width's constant factor, the naive ED
stays quadratic — IFECC beats it by orders of magnitude because it runs
a near-constant number of traversals.  This bench quantifies both gaps,
and — since the MS-BFS engine now backs ``naive_eccentricities`` itself
via :func:`repro.graph.batch.ecc_batch` — also the gap the
batch seam closed: ``naive-loop`` keeps the historical one-BFS-per-
vertex sweep (``traversal="loop"``, the seed-comparable number), while
``naive-batch`` is the same call on shared lane sweeps.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.baselines.naive import naive_eccentricities
from repro.core.ifecc import compute_eccentricities
from repro.graph.batch import ecc_batch
from repro.obs.trace import Stopwatch

from bench_common import graph_for, record, small_datasets, truth_for

GRAPHS = ("DBLP", "GP", "YOUT", "HUDO")
_rows = {}


@pytest.mark.parametrize("name", GRAPHS)
def test_four_way(benchmark, name):
    def run():
        graph = graph_for(name)
        truth = truth_for(name)

        watch = Stopwatch()
        looped = naive_eccentricities(graph, traversal="loop")
        t_naive_loop = watch.elapsed()
        np.testing.assert_array_equal(looped.eccentricities, truth)

        watch = Stopwatch()
        batched = naive_eccentricities(graph, traversal="batch")
        t_naive_batch = watch.elapsed()
        np.testing.assert_array_equal(batched.eccentricities, truth)

        watch = Stopwatch()
        bitparallel = ecc_batch(graph, np.arange(graph.num_vertices))
        t_msbfs = watch.elapsed()
        np.testing.assert_array_equal(bitparallel, truth)

        watch = Stopwatch()
        ifecc = compute_eccentricities(graph)
        t_ifecc = watch.elapsed()
        np.testing.assert_array_equal(ifecc.eccentricities, truth)

        return t_naive_loop, t_naive_batch, t_msbfs, t_ifecc

    _rows[name] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_zz_report_and_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'dataset':<6} {'naive-loop':>10} {'naive-batch':>11} "
        f"{'MS-BFS':>9} {'IFECC':>9} {'batch speedup':>13} "
        f"{'msbfs speedup':>13} {'ifecc speedup':>13}"
    ]
    for name, (t_loop, t_batch, t_msbfs, t_ifecc) in _rows.items():
        lines.append(
            f"{name:<6} {t_loop:>9.2f}s {t_batch:>10.2f}s "
            f"{t_msbfs:>8.2f}s {t_ifecc:>8.3f}s "
            f"{t_loop / t_batch:>12.1f}x "
            f"{t_loop / t_msbfs:>12.1f}x {t_loop / t_ifecc:>12.1f}x"
        )
    record("ablation_msbfs", lines)

    for name, (t_loop, t_batch, t_msbfs, t_ifecc) in _rows.items():
        # The MS-BFS engine accelerates the full sweep from either
        # entry point (the naive oracle's batch and ecc_batch share lane
        # sweeps, so both beat the one-BFS-per-vertex loop) ...
        assert t_batch < t_loop, name
        assert t_msbfs < t_loop, name
        # ... but IFECC still wins big (different asymptotics).
        assert t_ifecc < t_msbfs, name
