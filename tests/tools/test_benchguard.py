"""Benchmark regression gate (repro.obs.benchguard, ``repro bench``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.benchguard import (
    BUILD_PEAK_LIMIT,
    COLUMN_OVERHEAD_LIMIT,
    DEFAULT_TOLERANCE,
    GRID_SPEEDUP_FLOOR,
    SWEEP_FIRST_WIDTH,
    Finding,
    Headline,
    check_artifact,
    check_paths,
    compare_docs,
    default_artifacts,
    format_findings,
    known_schemas,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _msbfs_doc(ecc_speedup=3.0, rows_speedup=3.0):
    return {
        "schema": "bench_msbfs_engine/v1",
        "mode": "smoke",
        "target_speedup": 2.0,
        "rows_target_speedup": 1.5,
        "bit_identical": True,
        "graphs": [
            {
                "name": "powerlaw-4k",
                "speedup_ecc_vs_loop": ecc_speedup,
                "speedup_rows_vs_loop": rows_speedup,
            }
        ],
        "aggregate": {
            "powerlaw_speedup_ecc_vs_loop": ecc_speedup,
            "powerlaw_speedup_rows_vs_loop": rows_speedup,
        },
        "sweep_width": {"rows": [{"graph": "ba2k", "first_width": 64}]},
    }


def _bfs_doc(grid_speedup, mode="full"):
    return {
        "schema": "bench_bfs_engine/v1",
        "mode": mode,
        "target_speedup": 1.5,
        "graphs": [
            {
                "name": "grid-250x200",
                "family": "grid",
                "speedup_hybrid_vs_seed": grid_speedup,
            }
        ],
        "aggregate": {"powerlaw_speedup_hybrid_vs_seed": 3.0},
    }


class TestCheckCommittedArtifacts:
    """The gate must pass on the repository's own scorecards."""

    def test_default_artifacts_discovers_committed_scorecards(self):
        paths = default_artifacts(str(REPO_ROOT))
        names = {Path(p).name for p in paths}
        assert "BENCH_bfs_engine.json" in names
        assert "BENCH_msbfs_engine.json" in names
        assert "BENCH_obs_overhead.json" in names

    def test_committed_artifacts_all_pass(self):
        findings = check_paths(default_artifacts(str(REPO_ROOT)))
        failures = [f for f in findings if f.level == "fail"]
        assert findings and not failures, failures

    def test_cli_check_exits_zero_on_repo(self, capsys):
        assert main(["bench", "check", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out


class TestCheckEdgeCases:
    def test_unknown_schema_fails_listing_known(self, tmp_path):
        path = _write(tmp_path, "BENCH_x.json", {"schema": "nope/v9"})
        findings = check_artifact(path)
        assert findings[0].level == "fail"
        assert "nope/v9" in findings[0].message
        for schema in known_schemas():
            assert schema in findings[0].message

    def test_unreadable_artifact_fails(self, tmp_path):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json")
        findings = check_artifact(str(path))
        assert findings[0].level == "fail"
        assert "unreadable" in findings[0].message

    def test_missed_target_fails(self, tmp_path):
        doc = _msbfs_doc(ecc_speedup=1.2)  # below the recorded 2.0 target
        path = _write(tmp_path, "BENCH_msbfs_engine.json", doc)
        findings = check_artifact(path)
        assert any(f.level == "fail" for f in findings)

    @pytest.mark.parametrize("overhead, failed", [(1.5, False), (4.4, True)])
    def test_column_overhead_claim(self, tmp_path, overhead, failed):
        doc = _msbfs_doc()
        doc["aggregate"]["powerlaw_column_overhead_vs_ecc"] = overhead
        path = _write(tmp_path, "BENCH_msbfs_engine.json", doc)
        claims = [f for f in check_artifact(path) if "column" in f.message]
        assert len(claims) == 1
        assert claims[0].failed is failed
        assert f"limit {COLUMN_OVERHEAD_LIMIT:g}x" in claims[0].message

    @pytest.mark.parametrize(
        "rows, failed",
        [
            ([{"graph": "powerlaw-4k", "first_width": 8},
              {"graph": "ba2k", "first_width": 64}], False),
            ([{"graph": "ba2k", "first_width": 1}], True),
            ([{"graph": "powerlaw-4k", "first_width": 64}], True),
            (None, True),
        ],
        ids=["64-lanes", "serial", "no-ba2k-row", "no-section"],
    )
    def test_sweep_width_claim(self, tmp_path, rows, failed):
        doc = _msbfs_doc()
        if rows is None:
            del doc["sweep_width"]
        else:
            doc["sweep_width"]["rows"] = rows
        path = _write(tmp_path, "BENCH_msbfs_engine.json", doc)
        claims = [f for f in check_artifact(path) if "sweep-width" in f.message]
        assert len(claims) == 1
        assert claims[0].failed is failed
        assert f"want {SWEEP_FIRST_WIDTH}" in claims[0].message

    @pytest.mark.parametrize("speedup, failed", [(1.3, False), (0.8, True)])
    def test_grid_speedup_claim(self, tmp_path, speedup, failed):
        path = _write(tmp_path, "BENCH_bfs_engine.json", _bfs_doc(speedup))
        claims = [f for f in check_artifact(path) if "grid" in f.message]
        assert len(claims) == 1
        assert claims[0].failed is failed
        assert f"floor {GRID_SPEEDUP_FLOOR:g}x" in claims[0].message

    def test_grid_claim_skips_smoke_ladder(self, tmp_path):
        # The smoke ladder's grid is too small to gate a per-level cost.
        doc = _bfs_doc(0.8, mode="smoke")
        path = _write(tmp_path, "BENCH_bfs_engine.json", doc)
        assert not [f for f in check_artifact(path) if "grid" in f.message]

    @pytest.mark.parametrize(
        "ratio, failed", [(5.3, False), (24.4, True), (None, True)],
        ids=["one-assembly", "rebuilt-per-step", "not-recorded"],
    )
    def test_build_peak_claim(self, tmp_path, ratio, failed):
        dataset = {"name": "UKUN", "speedup_store_vs_parse": 1300.0}
        if ratio is not None:
            dataset["build_peak_ratio"] = ratio
        doc = {
            "schema": "bench_graph_store/v1",
            "mode": "full",
            "target_speedup": 10.0,
            "datasets": [dataset],
            "aggregate": {"claim_met": True},
        }
        path = _write(tmp_path, "BENCH_graph_store.json", doc)
        claims = [f for f in check_artifact(path) if "build" in f.message]
        assert len(claims) == 1
        assert claims[0].failed is failed
        if ratio is not None:
            assert f"limit {BUILD_PEAK_LIMIT:g}x" in claims[0].message

    def test_obs_overhead_budget_claim(self, tmp_path):
        doc = {
            "schema": "bench_obs_overhead/v1",
            "mode": "smoke",
            "overhead_fraction": 0.09,
            "budget_fraction": 0.03,
        }
        path = _write(tmp_path, "BENCH_obs_overhead.json", doc)
        findings = check_artifact(path)
        assert any(f.level == "fail" for f in findings)


class TestCompare:
    def test_same_document_passes(self, tmp_path):
        path = _write(tmp_path, "fresh.json", _msbfs_doc())
        base = _write(tmp_path, "base.json", _msbfs_doc())
        findings = compare_docs(path, base, tolerance=0.1)
        assert all(f.level == "ok" for f in findings)

    def test_injected_regression_fails(self, tmp_path):
        # Baseline claims 3.0x; the fresh run collapsed to 1.0x — far
        # below the 50% tolerance floor of 1.5x.
        fresh = _write(
            tmp_path, "fresh.json", _msbfs_doc(ecc_speedup=1.0)
        )
        base = _write(tmp_path, "base.json", _msbfs_doc(ecc_speedup=3.0))
        findings = compare_docs(fresh, base, tolerance=DEFAULT_TOLERANCE)
        failed = [f for f in findings if f.level == "fail"]
        assert failed
        assert any("speedup_ecc_vs_loop" in f.message for f in failed)

    def test_within_tolerance_passes(self, tmp_path):
        fresh = _write(
            tmp_path, "fresh.json", _msbfs_doc(ecc_speedup=2.0)
        )
        base = _write(tmp_path, "base.json", _msbfs_doc(ecc_speedup=3.0))
        findings = compare_docs(fresh, base, tolerance=0.5)
        assert all(f.level == "ok" for f in findings)

    def test_schema_mismatch_fails(self, tmp_path):
        fresh = _write(tmp_path, "fresh.json", _msbfs_doc())
        base = _write(
            tmp_path,
            "base.json",
            {"schema": "bench_obs_overhead/v1", "overhead_fraction": 0.01,
             "budget_fraction": 0.03},
        )
        findings = compare_docs(fresh, base, tolerance=0.1)
        assert any(f.level == "fail" for f in findings)

    def test_zero_shared_metrics_fails(self, tmp_path):
        doc_a = _msbfs_doc()
        doc_b = _msbfs_doc()
        doc_b["graphs"][0]["name"] = "other-graph"
        doc_b["aggregate"] = {}
        fresh = _write(tmp_path, "fresh.json", doc_a)
        base = _write(tmp_path, "base.json", doc_b)
        findings = compare_docs(fresh, base, tolerance=0.1)
        assert any(
            f.level == "fail" and "shared" in f.message for f in findings
        )

    @pytest.mark.parametrize(
        "fresh_overhead, failed", [(2.0, False), (4.0, True)]
    )
    def test_column_overhead_gates_across_modes(
        self, tmp_path, fresh_overhead, failed
    ):
        # A smoke run shares only the paper example and the BA-2k column
        # row with the committed full-mode artifact; the column overhead
        # gates as a lower-is-better headline.
        with open(REPO_ROOT / "BENCH_msbfs_engine.json") as handle:
            committed = json.load(handle)
        assert committed["mode"] == "full"
        doc = _msbfs_doc()
        doc["graphs"][0]["name"] = "paper-example"
        doc["aggregate"]["powerlaw_column_overhead_vs_ecc"] = fresh_overhead
        fresh = _write(tmp_path, "fresh.json", doc)
        base = _write(tmp_path, "base.json", committed)
        findings = compare_docs(fresh, base, tolerance=0.5)
        gated = [f for f in findings if ": fresh " in f.message]
        assert len(gated) == 3
        (column,) = [
            f for f in gated if "ba2k:column_overhead_vs_ecc" in f.message
        ]
        assert column.failed is failed
        assert "ceiling" in column.message

    def test_tolerance_validation(self, tmp_path):
        fresh = _write(tmp_path, "fresh.json", _msbfs_doc())
        with pytest.raises(ValueError):
            compare_docs(fresh, fresh, tolerance=1.0)
        with pytest.raises(ValueError):
            compare_docs(fresh, fresh, tolerance=-0.1)

    def test_cli_compare_regression_exits_one(self, tmp_path, capsys):
        fresh = _write(
            tmp_path, "fresh.json", _msbfs_doc(ecc_speedup=1.0)
        )
        base = _write(tmp_path, "base.json", _msbfs_doc(ecc_speedup=3.0))
        assert main(["bench", "compare", fresh, base]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFormatting:
    def _findings(self):
        return [
            Finding("ok", "BENCH_a.json", "all good"),
            Finding("fail", "BENCH_b.json", "regressed"),
        ]

    def test_text_format(self):
        text = format_findings(self._findings(), "text")
        assert "[  ok] BENCH_a.json: all good" in text
        assert "[FAIL] BENCH_b.json: regressed" in text
        assert "2 finding(s), 1 failure(s)" in text

    def test_github_format_annotations(self):
        text = format_findings(self._findings(), "github")
        assert "::notice title=benchguard BENCH_a.json::all good" in text
        assert "::error title=benchguard BENCH_b.json::regressed" in text


class TestModuleEntryPoint:
    def test_dash_m_exits_nonzero_on_failing_artifact(self, tmp_path):
        doc = _msbfs_doc(ecc_speedup=1.2)  # below the recorded 2.0 target
        path = _write(tmp_path, "BENCH_msbfs_engine.json", doc)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "bench", "check", path],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "[FAIL]" in proc.stdout
