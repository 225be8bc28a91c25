"""Counters, gauges, and fixed-bucket histograms for solver telemetry.

Where the event stream of :mod:`repro.obs.trace` itemises *what
happened*, this registry aggregates *how much*: total traversals, arcs
scanned vs. inspected, the decaying remaining-unresolved gauge, the
frontier-size distribution.  Two feeds fill it:
:meth:`MetricsRegistry.fold_event` folds each engine run's ``bfs.run`` /
``msbfs.run`` event in as the tracer emits it (so a pool worker's runs,
replayed into the parent's trace, arrive the same way), and
:meth:`MetricsRegistry.ingest_traversal_counter` folds a finished
:class:`repro.counters.TraversalCounter` in — so Figure 8-style work
tables and Table 2-style probe curves come out of one
:meth:`MetricsRegistry.snapshot` call.

Instruments are fixed-cost and allocation-free on the hot path: a
counter increment is one int add, a histogram observation one bisect
into a *fixed* bucket list chosen at creation (no dynamic rebinning, so
observing is O(log #buckets) and snapshots are comparable across runs).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.counters import TraversalCounter

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SIZE_BUCKETS",
    "LANE_WIDTH_BUCKETS",
    "DIRECTION_SWITCH_BUCKETS",
]

#: Power-of-two upper bounds for size-ish histograms (frontier sizes,
#: arcs per traversal).  Fixed so snapshots from different runs (or
#: different machines) land in comparable buckets.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = tuple(
    float(2**i) for i in range(0, 31, 2)
)

#: Bucket edges of the ``msbfs.lane_width`` histogram.  Every sweep is
#: one ``uint64`` word (64 lanes) wide; the 128/256 buckets of the
#: retired multi-word sweeps stay so snapshots keep one layout.
LANE_WIDTH_BUCKETS: Tuple[float, ...] = (64.0, 128.0, 256.0)

#: Upper edges for per-sweep top-down/bottom-up direction flips.  A
#: sweep that never leaves top-down lands in the 0 bucket; the paper's
#: direction-optimizing traversals typically flip twice (td→bu→td).
DIRECTION_SWITCH_BUCKETS: Tuple[float, ...] = (
    0.0,
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value (plus its extremes)."""

    __slots__ = ("name", "value", "min", "max", "_touched")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = 0.0
        self.max = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        self.value = value
        if not self._touched:
            self.min = self.max = value
            self._touched = True
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
        }


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``bounds`` are inclusive upper edges in increasing order; one
    overflow bucket catches everything above the last edge.  The bucket
    layout never changes after construction, so two snapshots of the
    same metric are always bucket-for-bucket comparable.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_SIZE_BUCKETS
    ) -> None:
        edges = [float(b) for b in bounds]
        if not edges or sorted(edges) != edges:
            raise ValueError("histogram bounds must be non-empty, increasing")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Name-addressed instruments with a JSON-ready snapshot.

    ``counter``/``gauge``/``histogram`` get-or-create, so call sites
    never coordinate registration — the first toucher defines the
    instrument and everyone else accumulates into it.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_SIZE_BUCKETS
            )
        return inst

    # ---------------------------------------------------------- feeds
    def ingest_traversal_counter(self, counter: "TraversalCounter") -> None:
        """Fold a :class:`repro.counters.TraversalCounter` total into the
        ``traversal.*`` instruments.

        Call once per finished run (the counter itself is cumulative);
        repeated ingestion double-counts by design, matching
        ``TraversalCounter.merge``.
        """
        for name, value in counter.totals().items():
            # The instrument for `bfs_runs` is `traversal.runs`.
            suffix = "runs" if name == "bfs_runs" else name
            self.counter("traversal." + suffix).inc(value)

    def fold_event(self, event: Dict[str, Any]) -> None:
        """Fold one engine run's event into the instruments.

        Selected by the event's name: a ``bfs.run`` event (one
        single-source traversal) feeds the ``bfs.*`` instruments, an
        ``msbfs.run`` event (one multi-source sweep) the ``msbfs.*``
        ones, and every other event is ignored.  ``msbfs.runs`` counts
        sweeps and ``msbfs.sources`` the traversals they stood in for —
        their ratio is the batching factor the lane engine achieved.
        A field the event lacks counts as zero.
        """
        name = event.get("name")
        if name == "bfs.run":
            prefix = "bfs"
        elif name == "msbfs.run":
            prefix = "msbfs"
        else:
            return
        directions = event.get("directions", ())
        bottom_up = directions.count("bu")
        self.counter(prefix + ".runs").inc()
        self.counter(prefix + ".levels").inc(event.get("levels", 0))
        self.counter(prefix + ".edges_scanned").inc(
            event.get("edges_scanned", 0)
        )
        self.counter(prefix + ".edges_inspected").inc(
            event.get("edges_inspected", 0)
        )
        self.counter(prefix + ".levels_bottom_up").inc(bottom_up)
        self.counter(prefix + ".levels_top_down").inc(
            len(directions) - bottom_up
        )
        frontier = self.histogram(prefix + ".frontier_size")
        for size in event.get("frontier_sizes", ()):
            frontier.observe(size)
        if prefix == "bfs":
            return
        self.counter("msbfs.sources").inc(event.get("num_sources", 0))
        self.counter("msbfs.words_touched").inc(
            event.get("words_touched", 0)
        )
        live = self.histogram("msbfs.live_lanes")
        for lanes in event.get("live_lanes", ()):
            live.observe(lanes)
        self.histogram("msbfs.lane_width", LANE_WIDTH_BUCKETS).observe(
            event.get("lane_words", 0) * 64
        )
        switches = sum(
            1
            for before, after in zip(directions, directions[1:])
            if before != after
        )
        self.histogram(
            "msbfs.direction_switches", DIRECTION_SWITCH_BUCKETS
        ).observe(switches)

    # ------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as one JSON-serialisable mapping."""
        out: Dict[str, Dict[str, Any]] = {}
        for family in (self._counters, self._gauges, self._histograms):
            for name, inst in sorted(family.items()):
                out[name] = inst.snapshot()
        return out
