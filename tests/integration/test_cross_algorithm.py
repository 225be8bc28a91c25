"""Integration tests: all exact algorithms agree on realistic stand-ins,
and the approximate algorithms relate to the exact ones as the paper
describes."""

import numpy as np
import pytest

from repro.baselines.boundecc import boundecc_eccentricities
from repro.baselines.kbfs import kbfs_eccentricities
from repro.baselines.naive import naive_eccentricities
from repro.baselines.pllecc import pllecc_eccentricities
from repro.core.ifecc import compute_eccentricities
from repro.core.kifecc import approximate_eccentricities
from repro.datasets.loader import load_dataset

from helpers import exact_via_f1


@pytest.fixture(scope="module")
def dblp():
    return load_dataset("DBLP")


@pytest.fixture(scope="module")
def dblp_truth(dblp):
    return naive_eccentricities(dblp).eccentricities


class TestExactConsensus:
    """Five independent exact implementations, one answer."""

    def test_ifecc1(self, dblp, dblp_truth):
        result = compute_eccentricities(dblp, num_references=1)
        np.testing.assert_array_equal(result.eccentricities, dblp_truth)

    def test_ifecc16(self, dblp, dblp_truth):
        result = compute_eccentricities(dblp, num_references=16)
        np.testing.assert_array_equal(result.eccentricities, dblp_truth)

    def test_boundecc(self, dblp, dblp_truth):
        result = boundecc_eccentricities(dblp)
        np.testing.assert_array_equal(result.eccentricities, dblp_truth)

    def test_pllecc(self, dblp, dblp_truth):
        report = pllecc_eccentricities(dblp, num_references=16)
        np.testing.assert_array_equal(
            report.result.eccentricities, dblp_truth
        )

    def test_f1_theorem(self, dblp, dblp_truth):
        result = exact_via_f1(dblp)
        np.testing.assert_array_equal(result.eccentricities, dblp_truth)


class TestPaperOrderings:
    """The relationships Figures 8-11 report, at stand-in scale."""

    def test_bfs_count_ordering(self, dblp):
        ifecc = compute_eccentricities(dblp, num_references=1)
        bound = boundecc_eccentricities(dblp)
        naive_count = dblp.num_vertices
        assert ifecc.num_bfs < bound.num_bfs < naive_count

    def test_ifecc1_cheaper_than_ifecc16(self, dblp):
        one = compute_eccentricities(dblp, num_references=1)
        sixteen = compute_eccentricities(dblp, num_references=16)
        assert one.num_bfs <= sixteen.num_bfs

    def test_pllecc_pll_stage_dominates(self, dblp):
        report = pllecc_eccentricities(dblp, num_references=16)
        assert report.pll_seconds > report.ecc_seconds

    def test_kifecc_more_stable_than_kbfs(self, dblp, dblp_truth):
        # kIFECC accuracy is monotone in k; kBFS is not guaranteed to be.
        accs = [
            approximate_eccentricities(dblp, k=k).accuracy_against(
                dblp_truth
            )
            for k in (2, 8, 32)
        ]
        assert accs == sorted(accs)

    def test_kifecc_beats_kbfs_at_matched_budget(self, dblp, dblp_truth):
        # Averaged over seeds at a modest budget, kIFECC's FFO-guided
        # sampling beats uniform sampling.
        k = 16
        kifecc_acc = approximate_eccentricities(dblp, k=k).accuracy_against(
            dblp_truth
        )
        kbfs_accs = [
            kbfs_eccentricities(dblp, k=k, seed=s).accuracy_against(
                dblp_truth
            )
            for s in range(5)
        ]
        assert kifecc_acc >= np.mean(kbfs_accs)
