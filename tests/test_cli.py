"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.generators import paper_example_graph
from repro.graph.io import write_edge_list


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    write_edge_list(paper_example_graph(), path)
    return str(path)


class TestEcc:
    def test_ecc_on_file(self, example_file, capsys):
        assert main(["ecc", example_file]) == 0
        out = capsys.readouterr().out
        assert "radius=3 diameter=5" in out
        assert "IFECC-1" in out

    def test_ecc_references_flag(self, example_file, capsys):
        assert main(["ecc", example_file, "-r", "2"]) == 0
        assert "IFECC-2" in capsys.readouterr().out

    def test_ecc_output_file(self, example_file, tmp_path, capsys):
        out_path = tmp_path / "ecc.txt"
        assert main(["ecc", example_file, "-o", str(out_path)]) == 0
        values = np.loadtxt(out_path, dtype=int)
        assert values.tolist() == [5, 4, 3, 3, 4, 5, 4, 5, 3, 4, 5, 5, 4]

    def test_ecc_on_dataset_name(self, capsys):
        assert main(["ecc", "DBLP"]) == 0
        assert "radius=" in capsys.readouterr().out


class TestApprox:
    def test_approx(self, example_file, capsys):
        assert main(["approx", example_file, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "kIFECC(k=4)" in out
        assert "resolved=" in out


class TestTrace:
    def test_ecc_trace_round_trip(self, example_file, tmp_path, capsys):
        """--trace writes a record whose contents match the live run."""
        from repro.obs.record import RunRecord

        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["ecc", example_file, "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "radius=3 diameter=5" in out
        assert "run record written" in out

        record = RunRecord.read_jsonl(str(trace_path))
        assert record.result["radius"] == 3
        assert record.result["diameter"] == 5
        assert record.result["exact"] is True
        assert record.result["resolved"] == 13
        assert record.config == {
            "command": "ecc",
            "references": 1,
            "source": example_file,
        }
        assert len(record.probe_events()) == record.result["num_traversals"]
        assert record.counters["traversal_runs"] == record.result[
            "num_traversals"
        ]

    def test_approx_trace(self, example_file, tmp_path):
        from repro.obs.record import RunRecord

        trace_path = tmp_path / "approx.jsonl"
        assert main(
            ["approx", example_file, "-k", "4", "--trace", str(trace_path)]
        ) == 0
        record = RunRecord.read_jsonl(str(trace_path))
        assert record.config["command"] == "approx"
        assert record.config["k"] == 4

    def test_trace_summarize(self, example_file, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        main(["ecc", example_file, "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "convergence:" in out
        assert "radius=3" in out
        assert "diameter=5" in out

    def test_no_trace_flag_writes_nothing(self, example_file, tmp_path):
        before = set(tmp_path.iterdir())
        assert main(["ecc", example_file]) == 0
        assert set(tmp_path.iterdir()) == before


class TestDiameter:
    def test_diameter(self, example_file, capsys):
        assert main(["diameter", example_file]) == 0
        assert "diameter=5" in capsys.readouterr().out

    def test_diameter_with_snap(self, example_file, capsys):
        assert main(
            ["diameter", example_file, "--snap-sample", "5"]
        ) == 0
        assert "SNAP sampling estimate" in capsys.readouterr().out


class TestStats:
    def test_stats(self, example_file, capsys):
        assert main(["stats", example_file]) == 0
        out = capsys.readouterr().out
        assert "|F1|=6" in out
        assert "|F2|=2" in out
        assert "S_4: 1" in out


class TestTable3:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "DBLP" in out and "UKUN" in out
        assert "4,653,174,411" in out


class TestErrors:
    def test_missing_file_reports_error(self, capsys):
        with pytest.raises((SystemExit, FileNotFoundError, OSError)):
            main(["ecc", "/nonexistent/file.txt"])

    def test_dataset_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an edge list\n")
        assert main(["ecc", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_missing_record(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["trace", "summarize", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.jsonl" in err

    def test_trace_summarize_corrupt_record(
        self, example_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "run.jsonl"
        main(["ecc", example_file, "--trace", str(trace_path)])
        lines = trace_path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear a middle line
        trace_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "run.jsonl: line 3" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCompare:
    def test_compare_runs_all(self, example_file, capsys):
        assert main(["compare", example_file]) == 0
        out = capsys.readouterr().out
        for label in ("IFECC-1", "IFECC-16", "BoundECC", "PLLECC"):
            assert label in out

    def test_compare_with_naive(self, example_file, capsys):
        assert main(["compare", example_file, "--naive"]) == 0
        assert "Naive" in capsys.readouterr().out

    def test_compare_budget_dnf(self, capsys):
        # a tiny budget forces the PLLECC row to DNF on a dataset graph
        assert main(["compare", "DBLP", "--budget", "0.0001"]) == 0
        out = capsys.readouterr().out
        assert "DNF" in out


class TestGenerate:
    def test_generate_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "dblp.txt"
        assert main(["generate", "DBLP", str(out_path)]) == 0
        from repro.graph.io import read_edge_list

        graph = read_edge_list(out_path)
        assert graph.num_edges > 0
        assert "wrote DBLP stand-in" in capsys.readouterr().out

    def test_generate_unknown_dataset(self, tmp_path, capsys):
        assert main(["generate", "NOPE", str(tmp_path / "x.txt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestApproxEstimator:
    def test_estimator_flag(self, example_file, capsys):
        assert main(
            ["approx", example_file, "-k", "2", "--estimator", "midpoint"]
        ) == 0
        assert "midpoint" in capsys.readouterr().out

    def test_bad_estimator_rejected(self, example_file):
        with pytest.raises(SystemExit):
            main(["approx", example_file, "--estimator", "magic"])


class TestStore:
    @pytest.fixture(autouse=True)
    def _isolated_store(self, tmp_path, monkeypatch):
        from repro.datasets import reset_default_collection

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "stores"))
        reset_default_collection()
        yield
        reset_default_collection()

    def test_store_build_and_info(self, capsys):
        assert main(["store", "build", "DBLP"]) == 0
        out = capsys.readouterr().out
        assert "DBLP" in out
        assert main(["store", "info", "store://DBLP"]) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "fingerprint" in out

    def test_store_build_is_cached(self, capsys):
        assert main(["store", "build", "DBLP"]) == 0
        first = capsys.readouterr().out
        assert main(["store", "build", "DBLP"]) == 0
        second = capsys.readouterr().out
        assert "cached" in second or first != ""  # second run hits the file

    def test_store_verify(self, capsys):
        assert main(["store", "build", "DBLP"]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "DBLP"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_store_verify_detects_corruption(self, tmp_path, capsys):
        from repro.datasets import default_collection

        assert main(["store", "build", "DBLP"]) == 0
        path = default_collection().path_for("DBLP")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert main(["store", "verify", "DBLP"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ecc_on_store_url(self, capsys):
        assert main(["store", "build", "DBLP"]) == 0
        capsys.readouterr()
        assert main(["ecc", "store://DBLP"]) == 0
        assert "radius=" in capsys.readouterr().out

    def test_ecc_on_rcsr_path(self, tmp_path, capsys):
        from repro.store import save_store

        path = tmp_path / "example.rcsr"
        save_store(paper_example_graph(), path)
        assert main(["ecc", str(path)]) == 0
        assert "radius=3 diameter=5" in capsys.readouterr().out

    def test_store_trace_records_fingerprint(self, tmp_path):
        import json

        from repro.datasets import default_collection

        assert main(["store", "build", "DBLP"]) == 0
        trace_path = tmp_path / "rec.jsonl"
        assert main(
            ["ecc", "store://DBLP", "--trace", str(trace_path)]
        ) == 0
        with trace_path.open() as handle:
            header = json.loads(handle.readline())
        store_meta = header["config"]["store"]
        assert store_meta["path"] == str(
            default_collection().path_for("DBLP")
        )
        assert len(store_meta["fingerprint"]) == 16

    def test_store_url_matches_dataset_result(self, tmp_path, capsys):
        store_out = tmp_path / "store.txt"
        dataset_out = tmp_path / "dataset.txt"
        assert main(["ecc", "store://DBLP", "-o", str(store_out)]) == 0
        assert main(["ecc", "DBLP", "-o", str(dataset_out)]) == 0
        assert (
            np.loadtxt(store_out).tolist() == np.loadtxt(dataset_out).tolist()
        )

    def test_store_build_unknown_name(self, capsys):
        assert main(["store", "build", "NOPE"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_store_info_missing_target(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "absent.rcsr")]) == 1
        assert "error:" in capsys.readouterr().err


class TestProgress:
    def test_ecc_progress_renders_on_stderr(self, example_file, capsys):
        assert main(["ecc", example_file, "--progress"]) == 0
        captured = capsys.readouterr()
        assert "radius=3 diameter=5" in captured.out
        assert "[progress]" in captured.err
        assert "done" in captured.err
        assert captured.err.endswith("\n")

    def test_progress_composes_with_trace(
        self, example_file, tmp_path, capsys
    ):
        from repro.obs.record import RunRecord

        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["ecc", example_file, "--progress", "--trace", str(trace_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        record = RunRecord.read_jsonl(str(trace_path))
        assert record.probe_events()

    def test_approx_and_diameter_accept_progress(
        self, example_file, capsys
    ):
        assert main(["approx", example_file, "-k", "4", "--progress"]) == 0
        assert "[progress]" in capsys.readouterr().err
        assert main(["diameter", example_file, "--progress"]) == 0
        assert "[progress]" in capsys.readouterr().err


class TestBench:
    """CLI surface of the regression gate (semantics in tests/tools)."""

    def _artifact(self, tmp_path, name, ecc_speedup):
        import json

        doc = {
            "schema": "bench_msbfs_engine/v1",
            "mode": "smoke",
            "target_speedup": 2.0,
            "rows_target_speedup": 1.5,
            "bit_identical": True,
            "graphs": [
                {
                    "name": "powerlaw-4k",
                    "speedup_ecc_vs_loop": ecc_speedup,
                    "speedup_rows_vs_loop": ecc_speedup,
                }
            ],
            "aggregate": {"powerlaw_speedup_ecc_vs_loop": ecc_speedup},
            "sweep_width": {"rows": [{"graph": "ba2k", "first_width": 64}]},
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_bench_check_passes_good_artifact(self, tmp_path, capsys):
        path = self._artifact(tmp_path, "BENCH_msbfs_engine.json", 3.0)
        assert main(["bench", "check", path]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_bench_check_fails_missed_target(self, tmp_path, capsys):
        path = self._artifact(tmp_path, "BENCH_msbfs_engine.json", 1.1)
        assert main(["bench", "check", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_compare_gates_regression(self, tmp_path, capsys):
        fresh = self._artifact(tmp_path, "fresh.json", 1.0)
        base = self._artifact(tmp_path, "base.json", 3.0)
        assert main(["bench", "compare", fresh, base]) == 1
        capsys.readouterr()
        assert main(
            ["bench", "compare", fresh, base, "--tolerance", "0.8"]
        ) == 0

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["bench"])
