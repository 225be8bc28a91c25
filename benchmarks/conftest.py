"""Benchmark-suite configuration: make bench_common importable and keep
pytest-benchmark in single-round mode (these are experiment harnesses)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True, scope="session")
def _record_results_to_tmp(tmp_path_factory):
    """Point ``bench_common.record`` at a temporary directory, so a test
    run leaves the committed ``benchmarks/results/*.txt`` alone; running
    a bench script directly still writes there."""
    import bench_common

    bench_common.RESULTS_DIR = tmp_path_factory.mktemp("results")
    yield
