"""Property test: the full solver stack runs clean under the sanitizer.

Every solver path — IFECC over a randomized corpus plus structured
graphs, the weighted and directed extensions, MS-BFS batches — is
executed with ``REPRO_SANITIZE`` armed.  Two properties:

1. nothing in the stack violates the buffer-ownership discipline (no
   :class:`~repro.errors.SanitizerError`), i.e. the runtime guard agrees
   with reprolint R9's static verdict that the code is escape-free;
2. the guarded answers are bit-identical to the unguarded ones — the
   sanitizer observes, it never perturbs.

Graphs are constructed *inside* the armed context so their CSR arrays
are frozen-guarded and their pooled engines are guard-wired.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import exact_eccentricities, random_connected_graph
from repro import sanitize
from repro.core.ifecc import compute_eccentricities
from repro.directed.eccentricity import (
    directed_ifecc_eccentricities,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.graph.batch import ecc_batch
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    paper_example_graph,
    path_graph,
    star_graph,
)
from repro.weighted.eccentricity import (
    naive_weighted_eccentricities,
    weighted_eccentricities,
)
from repro.weighted.graph import WeightedGraph


class TestArmedCorpus:
    def test_ifecc_random_corpus_armed(self, sanitizer):
        for seed in range(6):
            graph = random_connected_graph(70, 50, seed)
            truth = exact_eccentricities(graph)
            for refs in (1, 3):
                result = compute_eccentricities(graph, num_references=refs)
                np.testing.assert_array_equal(
                    result.eccentricities, truth
                )

    @pytest.mark.parametrize(
        "factory",
        [
            paper_example_graph,
            lambda: path_graph(15),
            lambda: cycle_graph(12),
            lambda: star_graph(9),
            lambda: grid_graph(4, 5),
        ],
        ids=["paper", "path", "cycle", "star", "grid"],
    )
    def test_ifecc_structured_armed(self, sanitizer, factory):
        graph = factory()
        truth = exact_eccentricities(graph)
        result = compute_eccentricities(graph)
        np.testing.assert_array_equal(result.eccentricities, truth)

    def test_msbfs_armed(self, sanitizer):
        graph = random_connected_graph(90, 70, seed=3)
        truth = exact_eccentricities(graph)
        np.testing.assert_array_equal(
            ecc_batch(graph, np.arange(graph.num_vertices)), truth
        )

    def test_weighted_armed(self, sanitizer):
        base = random_connected_graph(40, 30, seed=5)
        rng = np.random.default_rng(5)
        triples = []
        seen = set()
        for u in range(base.num_vertices):
            for v in base.neighbors(u):
                key = (min(u, int(v)), max(u, int(v)))
                if key not in seen:
                    seen.add(key)
                    triples.append(
                        (key[0], key[1], float(rng.integers(1, 9)))
                    )
        graph = WeightedGraph.from_edges(triples)
        truth = naive_weighted_eccentricities(graph)
        result = weighted_eccentricities(graph)
        np.testing.assert_allclose(
            result.eccentricities, truth, atol=1e-9
        )

    def test_directed_armed(self, sanitizer):
        base = random_connected_graph(50, 40, seed=8)
        graph = DirectedGraph.from_undirected(base)
        truth = naive_directed_eccentricities(graph)
        result = directed_ifecc_eccentricities(graph)
        np.testing.assert_array_equal(result.eccentricities, truth)

    def test_armed_equals_unarmed(self, sanitizer):
        # Same graph topology built twice: once guarded, once not; the
        # sanitizer must be answer-invisible.
        graph = random_connected_graph(60, 45, seed=13)
        armed = compute_eccentricities(graph).eccentricities.copy()
        sanitize.disable()
        try:
            plain_graph = random_connected_graph(60, 45, seed=13)
            plain = compute_eccentricities(plain_graph).eccentricities
        finally:
            sanitize.enable()
        np.testing.assert_array_equal(armed, plain)
