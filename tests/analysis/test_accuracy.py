"""Unit tests for accuracy metrics."""

import numpy as np
import pytest

from repro.analysis.accuracy import accuracy
from repro.errors import InvalidParameterError


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 100.0

    def test_half(self):
        assert accuracy(np.array([1, 2]), np.array([1, 3])) == 50.0

    def test_none_correct(self):
        assert accuracy(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_empty(self):
        assert accuracy(np.array([]), np.array([])) == 100.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            accuracy(np.array([1]), np.array([1, 2]))
