"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.counters import TraversalCounter
from repro.graph.engine import BFSRunStats
from repro.graph.msengine import MSBFSRunStats
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
        stats = BFSRunStats(
            source=0,
            levels=3,
            edges_scanned=40,
            edges_inspected=90,
            directions=["td", "bu", "bu"],
            frontier_sizes=[4, 100, 2],
        )
        registry.ingest_run_stats(stats)
        snap = registry.snapshot()
        assert snap["bfs.runs"]["value"] == 1
        assert snap["bfs.levels"]["value"] == 3
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


def _msbfs_stats(**overrides):
    base = dict(
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
    return MSBFSRunStats(**base)


class TestIngestMSBFS:
    def test_counters_and_direction_split(self):
        registry = MetricsRegistry()
        registry.ingest_msbfs_stats(_msbfs_stats())
        snap = registry.snapshot()
        assert snap["msbfs.runs"]["value"] == 1
        assert snap["msbfs.sources"]["value"] == 64
        assert snap["msbfs.words_touched"]["value"] == 123
        assert snap["msbfs.levels_bottom_up"]["value"] == 1
        assert snap["msbfs.levels_top_down"]["value"] == 2

    def test_lane_width_bucket_layout_is_stable(self):
        # The bucket edges are a published contract: snapshots taken by
        # different processes (or releases) must stay bucket-for-bucket
        # comparable, which merge_snapshot enforces by bound equality.
        assert LANE_WIDTH_BUCKETS == (64.0, 128.0, 256.0)
        registry = MetricsRegistry()
        registry.ingest_msbfs_stats(_msbfs_stats(lane_words=1))  # 64 bits
        registry.ingest_msbfs_stats(_msbfs_stats(lane_words=2))  # 128 bits
        registry.ingest_msbfs_stats(_msbfs_stats(lane_words=8))  # overflow
        snap = registry.snapshot()["msbfs.lane_width"]
        assert snap["bounds"] == list(LANE_WIDTH_BUCKETS)
        assert snap["counts"] == [1, 1, 0, 1]
        assert snap["total"] == 3

    def test_direction_switch_bucket_layout_is_stable(self):
        assert DIRECTION_SWITCH_BUCKETS == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
        registry = MetricsRegistry()
        # td,bu,td -> 2 switches; td,td,td -> 0; td,bu alternating 7x -> 6.
        registry.ingest_msbfs_stats(_msbfs_stats())
        registry.ingest_msbfs_stats(
            _msbfs_stats(directions=["td", "td", "td"])
        )
        registry.ingest_msbfs_stats(
            _msbfs_stats(directions=["td", "bu"] * 3 + ["td"])
        )
        snap = registry.snapshot()["msbfs.direction_switches"]
        assert snap["bounds"] == list(DIRECTION_SWITCH_BUCKETS)
        assert snap["counts"] == [1, 0, 1, 0, 1, 0, 0]
        assert snap["total"] == 3


class TestMergeSnapshot:
    def test_counters_add(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        b.counter("only_b").inc(1)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["c"]["value"] == 7
        assert snap["only_b"]["value"] == 1

    def test_gauges_preserve_extremes_and_last_value(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("g").set(5.0)
        for value in (-2.0, 11.0, 3.0):
            b.gauge("g").set(value)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()["g"]
        assert snap["min"] == -2.0
        assert snap["max"] == 11.0
        assert snap["value"] == 3.0

    def test_histograms_add_bucket_for_bucket(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for value in (0.5, 100.0):
            a.histogram("h", [1.0, 10.0]).observe(value)
        for value in (5.0, 0.1):
            b.histogram("h", [1.0, 10.0]).observe(value)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()["h"]
        assert snap["counts"] == [2, 1, 1]
        assert snap["total"] == 4
        assert snap["sum"] == pytest.approx(105.6)

    def test_histogram_bound_mismatch_raises(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", [1.0, 10.0]).observe(2.0)
        b.histogram("h", [1.0, 100.0]).observe(2.0)
        with pytest.raises(ValueError, match="bounds"):
            a.merge_snapshot(b.snapshot())

    def test_unknown_instrument_type_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown instrument"):
            registry.merge_snapshot({"x": {"type": "meter", "value": 1}})

    def test_merged_workers_match_single_registry(self):
        # The cross-process contract: per-worker deltas folded into the
        # parent must equal one registry that saw every run directly.
        worker_a = MetricsRegistry()
        worker_b = MetricsRegistry()
        combined = MetricsRegistry()
        stats_a = _msbfs_stats(lane_words=2)
        stats_b = _msbfs_stats(directions=["td", "td", "bu"])
        worker_a.ingest_msbfs_stats(stats_a)
        worker_b.ingest_msbfs_stats(stats_b)
        combined.ingest_msbfs_stats(stats_a)
        combined.ingest_msbfs_stats(stats_b)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker_a.snapshot())
        parent.merge_snapshot(worker_b.snapshot())
        assert parent.snapshot() == combined.snapshot()
