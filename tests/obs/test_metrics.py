"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.counters import TraversalCounter
from repro.obs.trace import MemorySink, Tracer
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DIRECTION_SWITCH_BUCKETS,
    LANE_WIDTH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_tracks_extremes(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        gauge.set(9.0)
        snap = gauge.snapshot()
        assert snap["value"] == 9.0
        assert snap["min"] == 2.0
        assert snap["max"] == 9.0

    def test_gauge_first_set_defines_both_extremes(self):
        gauge = Gauge("g")
        gauge.set(-3.0)
        assert gauge.min == gauge.max == -3.0

    def test_histogram_buckets_by_upper_bound(self):
        hist = Histogram("h", bounds=[1.0, 10.0, 100.0])
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            hist.observe(value)
        # inclusive upper edges + one overflow bucket
        assert hist.counts == [2, 1, 1, 1]
        assert hist.total == 5
        assert hist.sum == pytest.approx(556.5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[2.0, 1.0])

    def test_default_buckets_increasing_powers_of_two(self):
        assert DEFAULT_SIZE_BUCKETS[0] == 1.0
        assert list(DEFAULT_SIZE_BUCKETS) == sorted(DEFAULT_SIZE_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_ingest_traversal_counter(self):
        registry = MetricsRegistry()
        counter = TraversalCounter()
        counter.record(edges=10, vertices=5, inspected=25)
        counter.record(edges=2, vertices=3, relaxations=7)
        counter.lanes_discarded = 4
        registry.ingest_traversal_counter(counter)
        snap = registry.snapshot()
        assert snap["traversal.runs"]["value"] == 2
        assert snap["traversal.edges_scanned"]["value"] == 12
        assert snap["traversal.edges_inspected"]["value"] == 27
        assert snap["traversal.vertices_visited"]["value"] == 8
        assert snap["traversal.relaxations"]["value"] == 7
        assert snap["traversal.lanes_discarded"]["value"] == 4

    def test_ingest_run_stats(self):
        registry = MetricsRegistry()
        registry.fold_event(
            {
                "kind": "event",
                "name": "bfs.run",
                "source": 0,
                "levels": 3,
                "edges_scanned": 40,
                "edges_inspected": 90,
                "directions": ["td", "bu", "bu"],
                "frontier_sizes": [4, 100, 2],
            }
        )
        snap = registry.snapshot()
        assert snap["bfs.runs"]["value"] == 1
        assert snap["bfs.levels"]["value"] == 3
        assert snap["bfs.edges_scanned"]["value"] == 40
        assert snap["bfs.edges_inspected"]["value"] == 90
        assert snap["bfs.levels_bottom_up"]["value"] == 2
        assert snap["bfs.levels_top_down"]["value"] == 1
        assert snap["bfs.frontier_size"]["total"] == 3
        assert snap["bfs.frontier_size"]["sum"] == pytest.approx(106.0)

    def test_snapshot_is_sorted_and_json_shaped(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.gauge("g").set(1.5)
        snap = registry.snapshot()
        keys = [k for k in snap if snap[k]["type"] == "counter"]
        assert keys == ["a", "b"]
        json.dumps(snap)  # must serialise as-is

    def test_fold_ignores_other_events(self):
        registry = MetricsRegistry()
        registry.fold_event({"kind": "span", "name": "solver.probe"})
        registry.fold_event({"kind": "event", "name": "solver.territory"})
        assert registry.snapshot() == {}

    def test_fold_counts_missing_fields_as_zero(self):
        registry = MetricsRegistry()
        registry.fold_event({"name": "bfs.run", "source": 5})
        snap = registry.snapshot()
        assert snap["bfs.runs"]["value"] == 1
        assert snap["bfs.levels"]["value"] == 0
        assert snap["bfs.frontier_size"]["total"] == 0

    def test_tracer_event_folds_into_its_registry(self):
        tracer = Tracer(MemorySink())
        tracer.event("bfs.run", levels=2, directions=["td", "td"])
        tracer.event("solver.note", levels=7)
        snap = tracer.metrics.snapshot()
        assert snap["bfs.runs"]["value"] == 1
        assert snap["bfs.levels"]["value"] == 2
        assert snap["bfs.levels_top_down"]["value"] == 2
        # A disabled tracer emits nothing, so it folds nothing.
        off = Tracer()
        off.event("bfs.run", levels=2)
        assert off.metrics.snapshot() == {}


def _msbfs_event(**overrides):
    base = dict(
        kind="event",
        name="msbfs.run",
        num_sources=64,
        lane_words=1,
        levels=3,
        edges_scanned=40,
        edges_inspected=90,
        words_touched=123,
        directions=["td", "bu", "td"],
        live_lanes=[64, 60, 10],
        frontier_sizes=[5, 100, 2],
    )
    base.update(overrides)
    return base


class TestIngestMSBFS:
    def test_counters_and_direction_split(self):
        registry = MetricsRegistry()
        registry.fold_event(_msbfs_event())
        snap = registry.snapshot()
        assert snap["msbfs.runs"]["value"] == 1
        assert snap["msbfs.sources"]["value"] == 64
        assert snap["msbfs.words_touched"]["value"] == 123
        assert snap["msbfs.levels_bottom_up"]["value"] == 1
        assert snap["msbfs.levels_top_down"]["value"] == 2

    def test_lane_width_bucket_layout_is_stable(self):
        # The bucket edges are a published contract: snapshots taken by
        # different processes (or releases) must stay bucket-for-bucket
        # comparable.
        assert LANE_WIDTH_BUCKETS == (64.0, 128.0, 256.0)
        registry = MetricsRegistry()
        registry.fold_event(_msbfs_event(lane_words=1))  # 64 bits
        registry.fold_event(_msbfs_event(lane_words=2))  # 128 bits
        registry.fold_event(_msbfs_event(lane_words=8))  # overflow
        snap = registry.snapshot()["msbfs.lane_width"]
        assert snap["bounds"] == list(LANE_WIDTH_BUCKETS)
        assert snap["counts"] == [1, 1, 0, 1]
        assert snap["total"] == 3

    def test_direction_switch_bucket_layout_is_stable(self):
        assert DIRECTION_SWITCH_BUCKETS == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
        registry = MetricsRegistry()
        # td,bu,td -> 2 switches; td,td,td -> 0; td,bu alternating 7x -> 6.
        registry.fold_event(_msbfs_event())
        registry.fold_event(
            _msbfs_event(directions=["td", "td", "td"])
        )
        registry.fold_event(
            _msbfs_event(directions=["td", "bu"] * 3 + ["td"])
        )
        snap = registry.snapshot()["msbfs.direction_switches"]
        assert snap["bounds"] == list(DIRECTION_SWITCH_BUCKETS)
        assert snap["counts"] == [1, 0, 1, 0, 1, 0, 0]
        assert snap["total"] == 3

    def test_merged_workers_match_single_registry(self):
        # The cross-process contract: worker events replayed into the
        # parent's tracer must fold to the same metrics as one registry
        # that saw every run directly.
        event_a = _msbfs_event(lane_words=2)
        event_b = _msbfs_event(directions=["td", "td", "bu"])
        combined = MetricsRegistry()
        combined.fold_event(event_a)
        combined.fold_event(event_b)
        parent = Tracer(MemorySink())
        for worker, event in enumerate((event_a, event_b)):
            parent.emit_foreign(
                [dict(event, seq=1, parent=None)], worker=worker
            )
        assert parent.metrics.snapshot() == combined.snapshot()
