"""Unit tests for result objects."""

import numpy as np
import pytest

from repro.core.result import EccentricityResult, ProgressSnapshot
from repro.counters import TraversalCounter


def make_result(ecc, exact=True, algorithm="TEST"):
    ecc = np.asarray(ecc, dtype=np.int32)
    return EccentricityResult(
        eccentricities=ecc,
        lower=ecc.copy(),
        upper=ecc.copy(),
        exact=exact,
        algorithm=algorithm,
        num_bfs=3,
        elapsed_seconds=0.5,
    )


class TestEccentricityResult:
    def test_radius_diameter(self):
        result = make_result([3, 4, 5])
        assert result.radius == 3
        assert result.diameter == 5

    def test_empty(self):
        result = make_result([])
        assert result.radius == 0
        assert result.diameter == 0
        assert result.num_vertices == 0

    def test_accuracy_perfect(self):
        result = make_result([2, 2, 3])
        assert result.accuracy_against(np.array([2, 2, 3])) == 100.0

    def test_accuracy_partial(self):
        result = make_result([2, 2, 3, 3])
        assert result.accuracy_against(np.array([2, 2, 4, 4])) == 50.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_result([1, 2]).accuracy_against(np.array([1]))

    def test_accuracy_empty_is_hundred(self):
        assert make_result([]).accuracy_against(np.array([])) == 100.0

    def test_repr_mentions_algorithm(self):
        assert "TEST" in repr(make_result([1], algorithm="TEST"))

    def test_repr_marks_approx(self):
        assert "approx" in repr(make_result([1], exact=False))


class TestFromExact:
    def test_bounds_are_copies_of_the_eccentricities(self):
        ecc = np.array([2, 3, 3], dtype=np.int32)
        counter = TraversalCounter(bfs_runs=3)
        refs = np.array([1], dtype=np.int32)
        result = EccentricityResult.from_exact(ecc, "T", counter, 0.5, refs)
        assert result.eccentricities is ecc and result.exact
        for bound in (result.lower, result.upper):
            assert bound is not ecc and np.array_equal(bound, ecc)
            assert bound.dtype == np.int32
        assert result.reference_nodes is not refs
        assert result.reference_nodes.tolist() == [1]
        assert (result.num_bfs, result.counter) == (3, counter)
        assert result.elapsed_seconds == 0.5 and result.algorithm == "T"

    def test_no_references(self):
        ecc = np.array([1, 1], dtype=np.int32)
        result = EccentricityResult.from_exact(
            ecc, "T", TraversalCounter(), 0.0
        )
        assert result.reference_nodes.dtype == np.int32
        assert result.reference_nodes.size == 0


class TestProgressSnapshot:
    def test_fraction(self):
        snap = ProgressSnapshot(
            bfs_runs=2, source=0, resolved=5, num_vertices=10
        )
        assert snap.fraction_resolved == 0.5

    def test_fraction_empty_graph(self):
        snap = ProgressSnapshot(
            bfs_runs=0, source=0, resolved=0, num_vertices=0
        )
        assert snap.fraction_resolved == 1.0
