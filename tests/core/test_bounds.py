"""Unit tests for eccentricity bound maintenance (Lemmas 3.1 / 3.3).

The Lemma 3.3 tail cap and the lower-only update live in
``tests/helpers.py`` as the reference oracles of
``BoundState.apply_sweep_block``; their tests here check the oracles.
"""

import numpy as np
import pytest

from repro.core.bounds import INFINITE_ECC, BoundState
from repro.errors import InvalidParameterError
from repro.graph.generators import path_graph
from repro.graph.traversal import bfs_distances
from helpers import apply_lemma33_tail, apply_lower_only, exact_eccentricities


def all_pairs(n: int, seed: int, directed: bool, weighted: bool) -> np.ndarray:
    """``D[u, v] = dist(u, v)`` of a random strongly connected graph
    (a Hamiltonian cycle plus random arcs), by Floyd-Warshall."""
    rng = np.random.default_rng(seed)
    arcs = rng.random((n, n)) < 0.25
    cycle = np.arange(n)
    arcs[cycle, np.roll(cycle, -1)] = True
    if not directed:
        arcs |= arcs.T
    weights = rng.random((n, n)) + 0.1 if weighted else np.ones((n, n))
    if not directed:
        weights = np.minimum(weights, weights.T)
    dist = np.where(arcs, weights, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist if weighted else dist.astype(np.int32)


def probe(dist: np.ndarray, t: int, symmetric: bool):
    """``(dist_into, dist_from, ecc)`` of source ``t``: the arguments of
    ``apply_lemma31``, one vector twice for a symmetric metric."""
    dist_from = dist[t].copy()
    dist_into = dist_from if symmetric else dist[:, t].copy()
    return dist_into, dist_from, dist_from.max()


class TestInitialState:
    def test_initial_bounds(self):
        state = BoundState(4)
        assert np.all(state.lower == 0)
        assert np.all(state.upper == INFINITE_ECC)

    def test_nothing_resolved_initially(self):
        assert BoundState(3).num_resolved() == 0

    def test_zero_vertices(self):
        state = BoundState(0)
        assert state.all_resolved()
        assert state.eccentricities().tolist() == []

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            BoundState(-1)


class TestLemma31Formulas:
    def test_lower_formula(self):
        # max(dist(v, t), ecc(t) - dist(t, v)), from fresh bounds.
        state = BoundState(4)
        dist = np.array([0, 1, 2, 3], dtype=np.int32)
        state.apply_lemma31(dist, dist, 3)
        np.testing.assert_array_equal(state.lower, [3, 2, 2, 3])

    def test_upper_formula(self):
        # dist(v, t) + ecc(t), from fresh bounds.
        state = BoundState(3)
        dist = np.array([0, 1, 2], dtype=np.int32)
        state.apply_lemma31(dist, dist, 4)
        np.testing.assert_array_equal(state.upper, [4, 5, 6])

    def test_directed_lower_uses_dist_from(self):
        # ecc(v) >= dist(v, t) from dist_into; ecc(v) >= ecc(t) - dist(t,
        # v) from dist_from; the upper bound uses dist_into only.
        state = BoundState(3)
        dist_into = np.array([0, 1, 4], dtype=np.int32)
        dist_from = np.array([0, 3, 1], dtype=np.int32)
        state.apply_lemma31(dist_into, dist_from, 4)
        np.testing.assert_array_equal(state.lower, [4, 1, 4])
        np.testing.assert_array_equal(state.upper, [4, 5, 8])


class TestApplyLemma31:
    def test_bounds_sandwich_truth(self):
        g = path_graph(6)
        truth = exact_eccentricities(g)
        state = BoundState(6)
        for t in (0, 3, 5):
            dist = bfs_distances(g, t)
            state.apply_lemma31(dist, dist, int(truth[t]))
            assert np.all(state.lower <= truth)
            assert np.all(state.upper >= truth)

    def test_resolves_after_informative_sources(self):
        g = path_graph(5)
        truth = exact_eccentricities(g)
        state = BoundState(5)
        for t in range(5):
            dist = bfs_distances(g, t)
            state.apply_lemma31(dist, dist, int(truth[t]))
            state.set_exact(t, int(truth[t]))
        assert state.all_resolved()
        np.testing.assert_array_equal(state.eccentricities(), truth)

    def test_unreachable_entries_untouched(self):
        state = BoundState(3)
        dist = np.array([0, 1, -1], dtype=np.int32)
        state.apply_lemma31(dist, dist, 1)
        assert state.upper[2] == INFINITE_ECC
        assert state.lower[2] == 0
        state.apply_lemma31(dist, dist, 1, subset=np.array([1, 2]))
        assert state.upper[2] == INFINITE_ECC
        assert state.lower[2] == 0

    def test_updates_monotone(self):
        g = path_graph(6)
        truth = exact_eccentricities(g)
        state = BoundState(6)
        prev_lower = state.lower.copy()
        prev_upper = state.upper.copy()
        for t in (2, 0, 4):
            dist = bfs_distances(g, t)
            state.apply_lemma31(dist, dist, int(truth[t]))
            assert np.all(state.lower >= prev_lower)
            assert np.all(state.upper <= prev_upper)
            prev_lower = state.lower.copy()
            prev_upper = state.upper.copy()

    def test_inconsistent_distances_detected(self):
        # (first probe, inconsistent probe, subset of the second).
        cases = [
            # An absurd ecc for the same source.
            ([0, 1], 1, [0, 1], 100, None),
            # lower = 5, upper = 10, then a probe with d + ecc = 3.
            ([5], 5, [1], 2, None),
            ([5, 0], 5, [1, 0], 2, np.array([0])),
        ]
        for first, first_ecc, second, ecc, subset in cases:
            state = BoundState(len(first))
            dist = np.array(first, dtype=np.int32)
            state.apply_lemma31(dist, dist, first_ecc)
            lower, upper = state.lower.copy(), state.upper.copy()
            dist = np.array(second, dtype=np.int32)
            with pytest.raises(InvalidParameterError):
                state.apply_lemma31(dist, dist, ecc, subset=subset)
            # Checked before committed: the raise changed nothing.
            np.testing.assert_array_equal(state.lower, lower)
            np.testing.assert_array_equal(state.upper, upper)


class TestApplyLemma31Subset:
    """``subset=s`` equals the full-vector update restricted to ``s``."""

    @pytest.mark.parametrize(
        "directed, weighted",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    def test_equals_full_update_on_subset(self, directed, weighted):
        n = 12
        dist = all_pairs(n, seed=7, directed=directed, weighted=weighted)
        dtype = np.float64 if weighted else np.int32
        tolerance = 1e-9 if weighted else 0.0
        truth = dist.max(axis=1)
        subset = np.array([1, 4, 5, 9, 11])
        outside = np.setdiff1d(np.arange(n), subset)
        for first, second in [(0, 3), (6, 2), (10, 10)]:
            full = BoundState(n, dtype=dtype, tolerance=tolerance)
            part = BoundState(n, dtype=dtype, tolerance=tolerance)
            for state in (full, part):
                state.apply_lemma31(*probe(dist, first, not directed))
            lower, upper = part.lower.copy(), part.upper.copy()
            full.apply_lemma31(*probe(dist, second, not directed))
            part.apply_lemma31(
                *probe(dist, second, not directed), subset=subset
            )
            assert part.lower.dtype == part.upper.dtype == dtype
            assert part.lower[subset].tolist() == full.lower[subset].tolist()
            assert part.upper[subset].tolist() == full.upper[subset].tolist()
            assert part.lower[outside].tolist() == lower[outside].tolist()
            assert part.upper[outside].tolist() == upper[outside].tolist()
            assert np.all(full.lower <= truth + tolerance)
            assert np.all(full.upper >= truth - tolerance)


class TestApplyLowerOnly:
    def test_raises_lower(self):
        state = BoundState(3)
        apply_lower_only(state, np.array([0, 2, 5], dtype=np.int32))
        assert state.lower.tolist() == [0, 2, 5]

    def test_never_decreases(self):
        state = BoundState(2)
        apply_lower_only(state, np.array([4, 4], dtype=np.int32))
        apply_lower_only(state, np.array([1, 1], dtype=np.int32))
        assert state.lower.tolist() == [4, 4]


class TestLemma33Tail:
    def test_caps_upper(self):
        state = BoundState(3)
        dist_z = np.array([0, 1, 2], dtype=np.int32)
        apply_lemma33_tail(state, dist_z, tail_radius=2)
        assert state.upper.tolist() == [2, 3, 4]

    def test_never_below_lower(self):
        state = BoundState(2)
        apply_lower_only(state, np.array([5, 5], dtype=np.int32))
        apply_lemma33_tail(
            state, np.array([0, 0], dtype=np.int32), tail_radius=1
        )
        assert np.all(state.upper >= state.lower)

    def test_subset_restriction(self):
        state = BoundState(4)
        dist_z = np.array([0, 1, 2, 3], dtype=np.int32)
        apply_lemma33_tail(
            state, dist_z, tail_radius=1, subset=np.array([1, 3])
        )
        assert state.upper[0] == INFINITE_ECC
        assert state.upper[2] == INFINITE_ECC
        assert state.upper[1] == 2
        assert state.upper[3] == 4


class TestSetExact:
    def test_pins_value(self):
        state = BoundState(2)
        state.set_exact(1, 7)
        assert state.lower[1] == state.upper[1] == 7

    def test_out_of_bounds_value_rejected(self):
        state = BoundState(2)
        # reprolint: disable=R2 (forcing internal state for the error path)
        state.lower[0] = 5
        with pytest.raises(InvalidParameterError):
            state.set_exact(0, 3)

    def test_gap(self):
        state = BoundState(2)
        state.set_exact(0, 4)
        gap = state.gap()
        assert gap[0] == 0
        assert gap[1] > 0

    def test_eccentricities_requires_resolution(self):
        state = BoundState(2)
        state.set_exact(0, 1)
        with pytest.raises(InvalidParameterError):
            state.eccentricities()

    def test_repr(self):
        assert "resolved=0" in repr(BoundState(3))
