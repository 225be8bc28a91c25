"""Unit tests for the live convergence monitor (repro.obs.progress)."""

from __future__ import annotations

import io

from repro.graph.generators import barabasi_albert, paper_example_graph
from repro.obs.progress import ProgressMonitor, ProgressState
from repro.obs.trace import MemorySink, tracing


def _probe(seq, traversals, resolved, remaining, gap, t):
    return {
        "kind": "span",
        "seq": seq,
        "parent": None,
        "name": "solver.probe",
        "traversals": traversals,
        "resolved": resolved,
        "remaining": remaining,
        "gap": gap,
        "t0": t,
        "dur": 0.0,
    }


class TestStateFromEvents:
    def test_probe_events_drive_resolution(self):
        states = []
        monitor = ProgressMonitor(
            stream=io.StringIO(), callback=states.append
        )
        monitor.emit(_probe(1, 1, 4, 9, 40, t=10.0))
        monitor.emit(_probe(2, 2, 10, 3, 9, t=11.0))
        assert len(states) == 2
        last = states[-1]
        assert last.traversals == 2
        assert last.resolved == 10
        assert last.num_vertices == 13
        assert last.gap_mass == 9.0
        assert last.fraction_resolved() == 10 / 13

    def test_engine_events_count_traversals(self):
        monitor = ProgressMonitor(stream=io.StringIO())
        monitor.emit({"kind": "event", "name": "bfs.run", "t": 1.0})
        monitor.emit(
            {"kind": "event", "name": "msbfs.run", "num_sources": 64,
             "t": 1.5}
        )
        assert monitor.state.traversals == 65
        assert monitor.state.resolved is None
        assert monitor.state.fraction_resolved() is None

    def test_traversals_is_max_of_probe_and_engine_counts(self):
        # Probe spans and engine events describe the *same* traversals;
        # the monitor must not add them together.
        monitor = ProgressMonitor(stream=io.StringIO())
        monitor.emit({"kind": "event", "name": "bfs.run", "t": 1.0})
        monitor.emit(_probe(2, 1, 4, 9, 40, t=1.1))
        assert monitor.state.traversals == 1

    def test_parallel_batch_span_not_double_counted(self):
        monitor = ProgressMonitor(stream=io.StringIO())
        monitor.emit({"kind": "event", "name": "bfs.run", "t": 1.0})
        monitor.emit(
            {"kind": "span", "name": "parallel.batch", "traversals": 50,
             "t0": 1.0, "dur": 0.5}
        )
        assert monitor.state.traversals == 1

    def test_solver_run_span_finishes(self):
        states = []
        monitor = ProgressMonitor(
            stream=io.StringIO(), callback=states.append
        )
        monitor.emit(_probe(1, 3, 13, 0, 0, t=5.0))
        monitor.emit(
            {"kind": "span", "name": "solver.run", "traversals": 3,
             "t0": 4.0, "dur": 1.5}
        )
        assert states[-1].finished is True
        assert states[-1].eta_seconds == 0.0


class TestClockAndEta:
    def test_elapsed_and_rate_use_event_timestamps(self):
        monitor = ProgressMonitor(stream=io.StringIO())
        monitor.emit(_probe(1, 1, 1, 12, 100, t=100.0))
        monitor.emit(_probe(2, 5, 6, 7, 50, t=102.0))
        assert monitor.state.elapsed == 2.0
        assert monitor.state.rate == 2.5

    def test_eta_extrapolates_resolution_rate(self):
        monitor = ProgressMonitor(stream=io.StringIO())
        monitor.emit(_probe(1, 1, 0, 12, 100, t=0.0))
        monitor.emit(_probe(2, 2, 6, 6, 50, t=4.0))
        # Half resolved after 4s -> another 4s to go.
        assert monitor.state.eta_seconds == 4.0


class TestRendering:
    def test_render_line_contents(self):
        stream = io.StringIO()
        monitor = ProgressMonitor(stream=stream, interval=0.0)
        monitor.emit(_probe(1, 2, 10, 3, 9, t=1.0))
        text = stream.getvalue()
        assert "[progress]" in text
        assert "trav 2" in text
        assert "resolved 10/13 (76.9%)" in text
        assert "gap 9" in text

    def test_interval_throttles_rendering_but_not_callback(self):
        stream = io.StringIO()
        states = []
        monitor = ProgressMonitor(
            stream=stream, interval=10.0, callback=states.append
        )
        monitor.emit(_probe(1, 1, 1, 12, 90, t=0.0))  # first always draws
        first = stream.getvalue()
        monitor.emit(_probe(2, 2, 2, 11, 80, t=1.0))  # within interval
        assert stream.getvalue() == first
        assert len(states) == 2

    def test_finish_renders_done_with_newline(self):
        stream = io.StringIO()
        monitor = ProgressMonitor(stream=stream, interval=10.0)
        monitor.emit(_probe(1, 1, 1, 12, 90, t=0.0))
        monitor.emit(
            {"kind": "span", "name": "solver.run", "t0": 0.0, "dur": 2.0}
        )
        assert "done" in stream.getvalue()
        assert stream.getvalue().endswith("\n")

    def test_close_finalises_unfinished_line(self):
        stream = io.StringIO()
        monitor = ProgressMonitor(stream=stream, interval=0.0)
        monitor.emit(_probe(1, 1, 1, 12, 90, t=0.0))
        assert not stream.getvalue().endswith("\n")
        monitor.close()
        assert stream.getvalue().endswith("\n")
        # Idempotent once finished.
        monitor.close()
        assert stream.getvalue().count("\n") == 1

    def test_close_without_render_writes_nothing(self):
        stream = io.StringIO()
        ProgressMonitor(stream=stream).close()
        assert stream.getvalue() == ""


class TestComposition:
    def test_forward_tees_events_unchanged(self):
        capture = MemorySink()
        monitor = ProgressMonitor(stream=io.StringIO(), forward=capture)
        event = _probe(1, 1, 4, 9, 40, t=1.0)
        monitor.emit(event)
        assert capture.events == [event]

    def test_monitor_as_live_sink_for_a_real_run(self):
        from repro import IFECC

        states = []
        monitor = ProgressMonitor(
            stream=io.StringIO(), callback=states.append
        )
        graph = paper_example_graph()
        with tracing(monitor):
            result = IFECC(graph).run()
        assert states[-1].finished is True
        assert states[-1].traversals == result.num_bfs
        assert states[-1].resolved == graph.num_vertices
        assert states[-1].fraction_resolved() == 1.0
        assert states[-1].gap_mass == 0.0

    def test_discarded_lanes_are_not_counted_as_traversals(self):
        # An msbfs.run event counts every lane of the sweep, including
        # lanes the solver discards; once probe spans flow, only the
        # solver's own count may show.
        from repro import IFECC
        from repro.counters import TraversalCounter

        states = []
        monitor = ProgressMonitor(
            stream=io.StringIO(), callback=states.append
        )
        counter = TraversalCounter()
        with tracing(monitor):
            result = IFECC(
                barabasi_albert(2000, 4, seed=7), counter=counter
            ).run()
        assert counter.lanes_discarded > 0
        assert states[-1].finished is True
        assert states[-1].traversals == result.num_bfs


class TestProgressState:
    def test_defaults(self):
        state = ProgressState()
        assert state.traversals == 0
        assert state.finished is False
        assert state.fraction_resolved() is None
