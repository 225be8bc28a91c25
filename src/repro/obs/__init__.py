"""repro.obs — structured tracing, metrics, and run records.

The observability layer of the solver stack, in three pieces:

:mod:`repro.obs.trace`
    Zero-dependency span/event tracer with pluggable sinks (null —
    the default, one branch on hot paths; in-memory list)
    plus the :class:`~repro.obs.trace.Stopwatch` that
    replaces ad-hoc ``time.perf_counter()`` pairs (reprolint R8).
:mod:`repro.obs.metrics`
    Counters, gauges, and fixed-bucket histograms, fed by the
    engines' ``bfs.run``/``msbfs.run`` events as the tracer emits
    them and by finished ``TraversalCounter`` totals.
:mod:`repro.obs.record`
    The versioned run-record document (``--trace PATH`` /
    ``repro trace summarize``): graph fingerprint, config, the full
    per-traversal event stream, aggregated counters, final result.
:mod:`repro.obs.progress`
    Live convergence monitor (``--progress`` / a programmatic
    callback): an in-process sink rendering resolved count, bound-gap
    mass, traversal rate, and an ETA from the event stream.
:mod:`repro.obs.benchguard`
    The benchmark regression gate behind ``repro bench check`` /
    ``repro bench compare``: parses every committed
    ``BENCH_*.json`` artifact, checks its recorded claims, and
    compares fresh smoke runs against baselines with a tolerance.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import ProgressMonitor, ProgressState
from repro.obs.record import RECORD_VERSION, RunRecord, graph_fingerprint
from repro.obs.trace import (
    MemorySink,
    NullSink,
    Sink,
    Span,
    Stopwatch,
    Tracer,
    deterministic_view,
    get_tracer,
    set_tracer,
    stopwatch,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressMonitor",
    "ProgressState",
    "RECORD_VERSION",
    "RunRecord",
    "graph_fingerprint",
    "MemorySink",
    "NullSink",
    "Sink",
    "Span",
    "Stopwatch",
    "Tracer",
    "deterministic_view",
    "get_tracer",
    "set_tracer",
    "stopwatch",
    "tracing",
]
