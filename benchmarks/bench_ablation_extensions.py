"""Ablation — do the weighted and directed extensions keep IFECC's edge?

The weighted engine replaces BFS with Dijkstra and keeps the full IFECC
structure (FFO + Lemma 3.3): orders-of-magnitude wins over its naive
oracle.  ``directed_ifecc_eccentricities`` carries the IFECC scheme over
to digraphs (forward FFO of a reference + backward-BFS probes + the
directed tail cap; a territory's later probes sweep as backward MS-BFS
lanes) and keeps the same win over the naive directed sweep.  The radius/diameter rows run the extremes
driver over the Dijkstra and the forward/backward-BFS oracles.

Each side of a ``weighted`` or ``directed-ifecc`` row is timed as the
median of ``ROUNDS`` calls: one call of directed IFECC takes 20-30 ms,
so a single round moves its ratio across the 5x bound on noise alone.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro.directed.eccentricity import (
    directed_ifecc_eccentricities,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.directed.eccentricity import directed_radius_and_diameter
from repro.obs.trace import Stopwatch
from repro.weighted.eccentricity import (
    naive_weighted_eccentricities,
    weighted_eccentricities,
    weighted_radius_and_diameter,
)
from repro.weighted.graph import WeightedGraph

from bench_common import graph_for, record

GRAPHS = ("DBLP", "HUDO")
#: Timed calls per side of a row; the row reports their median.
ROUNDS = 5
_rows = {}


def _median_time(call):
    """``(median seconds of ROUNDS calls, the last call's result)``."""
    times = []
    for _ in range(ROUNDS):
        watch = Stopwatch()
        result = call()
        times.append(watch.elapsed())
    return statistics.median(times), result


@pytest.mark.parametrize("name", GRAPHS)
def test_weighted(benchmark, name):
    def run():
        base = graph_for(name)
        rng = np.random.default_rng(3)
        triples = [
            (u, v, int(rng.integers(1, 8))) for u, v in base.edges()
        ]
        wg = WeightedGraph.from_edges(
            triples, num_vertices=base.num_vertices
        )
        t_fast, fast = _median_time(lambda: weighted_eccentricities(wg))
        t_naive, truth = _median_time(
            lambda: naive_weighted_eccentricities(wg)
        )
        np.testing.assert_allclose(fast.eccentricities, truth)
        return t_fast, t_naive, fast.num_bfs, wg.num_vertices

    _rows[("weighted", name)] = benchmark.pedantic(
        run, rounds=1, iterations=1
    )


@pytest.mark.parametrize("name", GRAPHS)
def test_directed(benchmark, name):
    def run():
        base = graph_for(name)
        dg = DirectedGraph.from_undirected(base)
        t_ifecc, ifecc = _median_time(
            lambda: directed_ifecc_eccentricities(dg)
        )
        t_naive, truth = _median_time(
            lambda: naive_directed_eccentricities(dg)
        )
        np.testing.assert_array_equal(ifecc.eccentricities, truth)
        return t_ifecc, t_naive, ifecc.num_bfs, dg.num_vertices

    _rows[("directed-ifecc", name)] = benchmark.pedantic(
        run, rounds=1, iterations=1
    )


@pytest.mark.parametrize("name", GRAPHS)
def test_extremes(benchmark, name):
    """Radius/diameter early-stop through the metric-generic solver core:
    the same ``oracle_radius_and_diameter`` loop drives the Dijkstra and
    the forward/backward-BFS oracles."""

    def run():
        base = graph_for(name)
        rng = np.random.default_rng(3)
        triples = [
            (u, v, int(rng.integers(1, 8))) for u, v in base.edges()
        ]
        wg = WeightedGraph.from_edges(
            triples, num_vertices=base.num_vertices
        )
        dg = DirectedGraph.from_undirected(base)
        watch = Stopwatch()
        w_ext = weighted_radius_and_diameter(wg)
        t_w = watch.elapsed()
        watch = Stopwatch()
        d_ext = directed_radius_and_diameter(dg)
        t_d = watch.elapsed()
        watch = Stopwatch()
        w_truth = naive_weighted_eccentricities(wg)
        t_naive = watch.elapsed()
        assert w_ext.radius == pytest.approx(w_truth.min())
        assert w_ext.diameter == pytest.approx(w_truth.max())
        watch = Stopwatch()
        d_truth = naive_directed_eccentricities(dg)
        t_d_naive = watch.elapsed()
        assert d_ext.radius == d_truth.min()
        assert d_ext.diameter == d_truth.max()
        _rows[("dir-extrem", name)] = (
            t_d, t_d_naive, d_ext.num_bfs, dg.num_vertices
        )
        return t_w, t_naive, w_ext.num_bfs, wg.num_vertices

    _rows[("wtd-extrem", name)] = benchmark.pedantic(
        run, rounds=1, iterations=1
    )


def test_zz_report_and_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'setting':<10} {'dataset':<6} {'fast':>9} {'naive':>9} "
        f"{'speedup':>8} {'#traversals':>12} {'n':>7}"
    ]
    for (setting, name), (t_fast, t_naive, bfs, n) in _rows.items():
        lines.append(
            f"{setting:<10} {name:<6} {t_fast:>8.2f}s {t_naive:>8.2f}s "
            f"{t_naive / t_fast:>7.1f}x {bfs:>12} {n:>7}"
        )
    record("ablation_extensions", lines)

    failing = []
    for (setting, name), (t_fast, t_naive, bfs, n) in _rows.items():
        if setting in ("weighted", "directed-ifecc"):
            # full IFECC machinery: strict, large wins
            if not t_fast < t_naive / 5:
                failing.append(
                    f"{setting} {name}: {t_naive / t_fast:.1f}x speedup, "
                    f"not above 5x"
                )
        # extremes early-stop: certifying two numbers must cost far
        # fewer traversals than the naive full sweep (and so must the
        # full IFECC machinery)
        if not bfs < n / 10:
            failing.append(f"{setting} {name}: {bfs} traversals, n = {n}")
    # Every row is judged before the check fails, so one failure does
    # not hide another.
    assert not failing, "; ".join(failing)
