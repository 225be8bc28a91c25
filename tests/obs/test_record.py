"""Round-trip tests for the versioned run record (repro.obs.record)."""

import json

import pytest

from repro import IFECC
from repro.errors import InvalidParameterError
from repro.graph.generators import barabasi_albert
from repro.obs.record import (
    RECORD_SCHEMA,
    RECORD_VERSION,
    RunRecord,
    graph_fingerprint,
)
from repro.obs.trace import MemorySink, tracing


@pytest.fixture(scope="module")
def traced_run(example_graph):
    """One IFECC run on the paper graph with the tracer capturing."""
    sink = MemorySink()
    with tracing(sink) as tracer:
        result = IFECC(example_graph).run()
    record = RunRecord.from_run(
        result,
        example_graph,
        sink.events,
        config={"command": "ecc", "references": 16},
        metrics=tracer.metrics.snapshot(),
    )
    return result, record


class TestGraphFingerprint:
    def test_same_graph_same_digest(self, example_graph):
        first = graph_fingerprint(example_graph)
        second = graph_fingerprint(example_graph)
        assert first == second
        assert first["num_vertices"] == example_graph.num_vertices
        assert len(first["digest"]) == 16

    def test_different_graphs_differ(self, example_graph):
        other = barabasi_albert(50, 2, seed=7)
        assert (
            graph_fingerprint(example_graph)["digest"]
            != graph_fingerprint(other)["digest"]
        )


class TestRoundTrip:
    def test_write_read_preserves_document(self, traced_run, tmp_path):
        _, record = traced_run
        path = tmp_path / "run.jsonl"
        record.write_jsonl(str(path))
        loaded = RunRecord.read_jsonl(str(path))
        assert loaded.algorithm == record.algorithm
        assert loaded.graph == record.graph
        assert loaded.config == record.config
        assert loaded.counters == record.counters
        assert loaded.metrics == record.metrics
        assert loaded.result == record.result
        assert loaded.wall_seconds == record.wall_seconds
        assert loaded.version == RECORD_VERSION
        # events survive byte-for-byte modulo JSON number coercion
        assert json.loads(json.dumps(record.events)) == loaded.events

    def test_record_matches_live_result(self, traced_run, tmp_path):
        """The saved record replays exactly what the live run reported."""
        result, record = traced_run
        path = tmp_path / "run.jsonl"
        record.write_jsonl(str(path))
        loaded = RunRecord.read_jsonl(str(path))

        assert loaded.result["num_traversals"] == result.num_bfs
        assert loaded.result["radius"] == result.radius
        assert loaded.result["diameter"] == result.diameter
        assert loaded.result["exact"] is result.exact
        assert loaded.result["resolved"] == result.num_vertices
        assert loaded.counters["traversal_runs"] == result.counter.bfs_runs

        probes = loaded.probe_events()
        assert len(probes) == result.num_bfs

        # Per-traversal resolved counts must match a fresh live run's
        # progress snapshots (IFECC is deterministic).
        from repro.graph.generators import paper_example_graph

        live = [s.resolved for s in IFECC(paper_example_graph()).steps()]
        assert [p["resolved"] for p in probes] == live
        assert probes[-1]["resolved"] == result.num_vertices

    def test_missing_footer_tolerated(self, traced_run, tmp_path):
        _, record = traced_run
        path = tmp_path / "run.jsonl"
        record.write_jsonl(str(path))
        lines = path.read_text().strip().split("\n")
        truncated = tmp_path / "crashed.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        loaded = RunRecord.read_jsonl(str(truncated))
        assert loaded.result == {}
        assert loaded.counters == {}
        assert len(loaded.events) == len(record.events)

    def test_torn_final_line_dropped(self, traced_run, tmp_path):
        """A crash mid-write leaves a truncated last line; the prefix
        must stay readable with that fragment dropped."""
        _, record = traced_run
        path = tmp_path / "run.jsonl"
        record.write_jsonl(str(path))
        lines = path.read_text().strip().split("\n")
        # Drop the footer, then tear the last event line in half.
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "\n".join(lines[:-2]) + "\n" + lines[-2][: len(lines[-2]) // 2]
        )
        loaded = RunRecord.read_jsonl(str(torn))
        assert loaded.result == {}
        assert loaded.counters == {}
        assert len(loaded.events) == len(record.events) - 1

    def test_corruption_before_final_line_raises(self, traced_run, tmp_path):
        _, record = traced_run
        path = tmp_path / "run.jsonl"
        record.write_jsonl(str(path))
        lines = path.read_text().strip().split("\n")
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear a middle line
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match="bad.jsonl: line 2"):
            RunRecord.read_jsonl(str(bad))

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read"):
            RunRecord.read_jsonl(str(tmp_path / "absent.jsonl"))

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n{}\n")
        with pytest.raises(InvalidParameterError, match="line 1"):
            RunRecord.read_jsonl(str(path))

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "footer", "result": {}}\n')
        with pytest.raises(InvalidParameterError):
            RunRecord.read_jsonl(str(path))

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema": "other/thing"}) + "\n"
        )
        with pytest.raises(InvalidParameterError):
            RunRecord.read_jsonl(str(path))

    def test_rejects_newer_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "header",
                    "schema": RECORD_SCHEMA,
                    "version": RECORD_VERSION + 1,
                }
            )
            + "\n"
        )
        with pytest.raises(InvalidParameterError):
            RunRecord.read_jsonl(str(path))


class TestSummarize:
    def test_summary_shows_convergence_and_final(self, traced_run):
        result, record = traced_run
        text = record.summarize()
        assert f"algorithm={record.algorithm}" in text
        assert "convergence:" in text
        assert f"radius={result.radius}" in text
        assert f"diameter={result.diameter}" in text
        assert record.graph["digest"] in text
        assert "config: command=ecc references=16" in text
        # one table row per traversal
        rows = [
            line
            for line in text.split("\n")
            if line.startswith("  ") and "source" not in line
        ]
        assert len(rows) == result.num_bfs

    def test_summary_accounts_for_batched_probes(self):
        graph = barabasi_albert(400, 3, seed=5)
        sink = MemorySink()
        with tracing(sink):
            result = IFECC(graph).run()
        record = RunRecord.from_run(result, graph, sink.events)
        swept = sum(e["num_sources"] for e in record.msbfs_events())
        discarded = result.counter.lanes_discarded
        assert record.counters["lanes_discarded"] == discarded > 0
        assert (
            f"probes: consumed={result.num_bfs} lanes_swept={swept} "
            f"lanes_discarded={discarded}"
        ) in record.summarize().split("\n")
