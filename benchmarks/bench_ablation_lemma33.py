"""Ablation — where does IFECC's efficiency come from?

IFECC = (FFO source order) + (Lemma 3.3 territory upper-bound cap).
Plugging the FFO order into the plain BFS-framework loop
(:func:`repro.core.framework.ffo_order`) keeps the order but drops the
cap (only Lemma 3.1 updates apply).  The gap between the two isolates
the cap's contribution; the comparison against the Takes–Kosters
alternating rule isolates the order's contribution.
"""

from __future__ import annotations

import pytest

from repro.core.framework import (
    ffo_order,
    framework_eccentricities,
    takes_kosters,
)
from repro.core.ifecc import compute_eccentricities

from bench_common import graph_for, record, small_datasets

_rows = {}
#: A subset keeps the (slow) no-cap configuration affordable.
GRAPHS = tuple(small_datasets()[:6])


@pytest.mark.parametrize("name", GRAPHS)
def test_variants(benchmark, name):
    def run():
        graph = graph_for(name)
        full = compute_eccentricities(graph)  # order + cap
        order_only = framework_eccentricities(
            graph, ffo_order(graph), "FFO-only"
        )
        alternating = framework_eccentricities(
            graph, takes_kosters(graph.degrees), "TK-select"
        )
        assert full.exact and order_only.exact and alternating.exact
        return full.num_bfs, order_only.num_bfs, alternating.num_bfs

    _rows[name] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_zz_report_and_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'dataset':<6} {'IFECC':>7} {'FFO only':>9} {'TK select':>10}"
        "   (#BFS to exact ED)"
    ]
    for name, (full, order_only, alternating) in _rows.items():
        lines.append(
            f"{name:<6} {full:>7} {order_only:>9} {alternating:>10}"
        )
    record("ablation_lemma33", lines)

    for name, (full, order_only, _alternating) in _rows.items():
        # The Lemma 3.3 cap is load-bearing: dropping it costs > 2x BFS.
        assert full * 2 < order_only, name
