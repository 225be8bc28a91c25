"""Property-based tests: every algorithm agrees with the BFS oracle and
every bound sandwiches the truth, on random connected graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.boundecc import boundecc_eccentricities
from repro.baselines.kbfs import kbfs_eccentricities
from repro.baselines.pllecc import pllecc_eccentricities
from repro.core.ifecc import IFECC, compute_eccentricities
from repro.core.kifecc import approximate_eccentricities

from helpers import (
    approximate_via_f2,
    exact_eccentricities,
    exact_via_f1,
    random_connected_graph,
)


@st.composite
def small_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=45))
    extra = draw(st.integers(min_value=0, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_connected_graph(n, extra, seed)


class TestExactAlgorithmsAgree:
    @given(small_connected_graphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_ifecc_matches_oracle(self, g, r):
        truth = exact_eccentricities(g)
        result = compute_eccentricities(g, num_references=r)
        np.testing.assert_array_equal(result.eccentricities, truth)

    @given(small_connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_boundecc_matches_oracle(self, g):
        truth = exact_eccentricities(g)
        result = boundecc_eccentricities(g)
        np.testing.assert_array_equal(result.eccentricities, truth)

    @given(small_connected_graphs())
    @settings(max_examples=15, deadline=None)
    def test_pllecc_matches_oracle(self, g):
        truth = exact_eccentricities(g)
        report = pllecc_eccentricities(g, num_references=2)
        np.testing.assert_array_equal(report.result.eccentricities, truth)

    @given(small_connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_f1_theorem_matches_oracle(self, g):
        truth = exact_eccentricities(g)
        np.testing.assert_array_equal(
            exact_via_f1(g).eccentricities, truth
        )


class TestApproximationInvariants:
    @given(
        small_connected_graphs(),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_kifecc_is_sound_lower_bound(self, g, k):
        truth = exact_eccentricities(g)
        result = approximate_eccentricities(g, k=k)
        assert np.all(result.eccentricities <= truth)
        assert np.all(result.lower <= truth)
        assert np.all(
            result.upper.astype(np.int64) >= truth.astype(np.int64)
        )

    @given(
        small_connected_graphs(),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_kbfs_is_sound_lower_bound(self, g, k, seed):
        truth = exact_eccentricities(g)
        result = kbfs_eccentricities(g, k=k, seed=seed)
        assert np.all(result.eccentricities <= truth)

    @given(small_connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_f2_theorem_band(self, g):
        truth = exact_eccentricities(g)
        result = approximate_via_f2(g)
        est = result.eccentricities.astype(np.float64)
        positive = truth > 0
        # floor rounding allows at most 1 below the 7/12 bound
        assert np.all((est[positive] + 1) / truth[positive] > 7.0 / 12.0)
        assert np.all(est[positive] / truth[positive] <= 1.5 + 1e-12)


class TestAnytimeMonotonicity:
    @given(small_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_bounds_tighten_monotonically(self, g):
        truth = exact_eccentricities(g)
        engine = IFECC(g)
        prev_lower = engine.bounds.lower.copy()
        prev_upper = engine.bounds.upper.copy()
        for _snapshot in engine.steps():
            assert np.all(engine.bounds.lower >= prev_lower)
            assert np.all(engine.bounds.upper <= prev_upper)
            assert np.all(engine.bounds.lower <= truth)
            assert np.all(
                engine.bounds.upper.astype(np.int64)
                >= truth.astype(np.int64)
            )
            prev_lower = engine.bounds.lower.copy()
            prev_upper = engine.bounds.upper.copy()
        np.testing.assert_array_equal(engine.bounds.lower, truth)


class TestDiameterEstimators:
    @given(small_connected_graphs(), st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_rv_estimate_bounds(self, g, seed):
        from repro.baselines.rv_diameter import rv_estimate_diameter

        truth = int(exact_eccentricities(g).max())
        est = rv_estimate_diameter(g, seed=seed)
        assert est.diameter <= truth
        assert 3 * est.diameter >= 2 * truth

    @given(small_connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_opex_matches_oracle(self, g):
        from repro.baselines.henderson import opex_eccentricities

        np.testing.assert_array_equal(
            opex_eccentricities(g).eccentricities,
            exact_eccentricities(g),
        )
