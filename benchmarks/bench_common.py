"""Shared infrastructure for the per-table / per-figure benchmarks.

Each ``bench_*.py`` module reproduces one table or figure of the paper's
evaluation (Section 7).  The conventions:

* heavy computations run once (``benchmark.pedantic(rounds=1)``) — these
  are experiment harnesses, not micro-benchmarks;
* every module prints the same rows/series its paper artifact reports and
  appends them to ``<RESULTS_DIR>/<experiment>.txt``: the committed
  ``benchmarks/results/`` when a bench script runs directly, a temporary
  directory under pytest (``benchmarks/conftest.py``);
* every module asserts the *shape* of the paper's finding (who wins, by
  roughly what factor, which curves are monotone) — absolute numbers are
  not comparable because the substrate is a pure-Python simulator on
  synthetic stand-ins (see DESIGN.md).

Module-level caches keep each dataset's graph, exact eccentricities, and
PLL index shared across benchmark modules within one pytest session.

Wall-clock measurement goes through :class:`repro.obs.trace.Stopwatch`
(reprolint R8 bans bare ``time.perf_counter()`` pairs in the library;
benchmarks follow the same convention), and :func:`write_trace_record`
packages one traced IFECC run as the machine-readable run-record
artifact CI uploads next to ``BENCH_bfs_engine.json``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.baselines.naive import naive_eccentricities
from repro.core.ifecc import IFECC, compute_eccentricities
from repro.datasets.collection import default_collection
from repro.datasets.registry import dataset_names, get_spec
from repro.errors import BudgetExhaustedError
from repro.graph.csr import Graph
from repro.obs.record import RunRecord
from repro.obs.trace import MemorySink, tracing
from repro.pll.index import PLLIndex, build_pll_index

RESULTS_DIR = Path(__file__).parent / "results"

#: Per-dataset wall-clock cap standing in for the paper's 24-hour cut-off.
CUTOFF_SECONDS = 90.0

#: BoundECC BFS cap implied by the cut-off (BFS cost ~ ms at our scale).
BOUNDECC_MAX_BFS = 20_000

_GRAPHS: Dict[str, Graph] = {}
_TRUTH: Dict[str, np.ndarray] = {}
_PLL: Dict[str, Optional[PLLIndex]] = {}


def graph_for(name: str) -> Graph:
    """The stand-in graph for a dataset (session cache).

    Sourced through the default :class:`~repro.datasets.collection.
    GraphCollection`: the first bench invocation on a machine
    materializes the stand-in into a ``.rcsr`` container, every later
    one (same session or not) mmap-opens the file instead of
    regenerating an identical graph.
    """
    if name not in _GRAPHS:
        _GRAPHS[name] = default_collection().open(name)
    return _GRAPHS[name]


def truth_for(name: str) -> np.ndarray:
    """Exact eccentricities of a stand-in (via IFECC, verified once by
    the naive oracle on the smallest dataset)."""
    if name not in _TRUTH:
        graph = graph_for(name)
        result = compute_eccentricities(graph)
        _TRUTH[name] = result.eccentricities
    return _TRUTH[name]


def pll_index_for(name: str) -> Optional[PLLIndex]:
    """A PLL index for a dataset, or None when construction exceeds the
    cut-off (the paper's DNF case).  Cached across benchmarks."""
    if name not in _PLL:
        try:
            _PLL[name] = build_pll_index(
                graph_for(name), time_budget=CUTOFF_SECONDS
            )
        except BudgetExhaustedError:
            _PLL[name] = None
    return _PLL[name]


def small_datasets():
    return dataset_names("small")


def large_datasets():
    return dataset_names("large")


_written_this_session = set()


def record(experiment: str, lines) -> None:
    """Print a result block and write it to the results file.

    The first write of a process truncates the file, so
    ``RESULTS_DIR/<experiment>.txt`` always holds the latest run.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    text = "\n".join(lines)
    print(f"\n=== {experiment} ===\n{text}")
    mode = "a" if experiment in _written_this_session else "w"
    _written_this_session.add(experiment)
    with open(RESULTS_DIR / f"{experiment}.txt", mode, encoding="utf-8") as f:
        f.write(f"# run {stamp}\n{text}\n\n")


def write_trace_record(graph: Graph, out_path: Path) -> RunRecord:
    """Run IFECC on ``graph`` under a capturing tracer; save the record.

    The record (header / per-traversal events / footer, see
    :mod:`repro.obs.record`) is the structured counterpart of the
    aggregate timings in ``BENCH_bfs_engine.json``: it pins the exact
    probe sequence, per-BFS direction decisions, and final result, so a
    perf regression can be diagnosed from the artifact alone.
    """
    sink = MemorySink()
    with tracing(sink) as tracer:
        result = IFECC(graph).run()
    record = RunRecord.from_run(
        result,
        graph,
        sink.events,
        config={"harness": "bench-smoke"},
        metrics=tracer.metrics.snapshot(),
    )
    record.write_jsonl(str(out_path))
    return record


def fmt_seconds(seconds: Optional[float]) -> str:
    """Human-readable seconds with a DNF marker for None."""
    if seconds is None:
        return "DNF"
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def geometric_mean(values) -> float:
    values = np.asarray([v for v in values if v is not None], dtype=float)
    if len(values) == 0:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))
