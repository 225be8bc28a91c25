"""Pinned telemetry of three traced runs: event stream and metrics.

Each engine run emits one ``bfs.run`` or ``msbfs.run`` event, and the
metrics registry aggregates what those events itemise.  This file pins
both observables on three runs that between them reach every path a
traversal's record can take:

* IFECC on a 2k-vertex Barabási–Albert graph — single-source probes,
  MS-BFS lane batches of FFO probes, and lanes swept but discarded;
* directed IFECC — forward and backward engine runs on a digraph;
* ``BFSOracle(graph, backend="process", workers=2).ecc_all()`` — lane
  sweeps run in pool workers and replayed into the parent's trace.

``tests/data/golden_telemetry.json`` holds, per run, a digest of
:func:`~repro.obs.trace.deterministic_view` of the events (plus the
count of each event name, to localise a mismatch) and the full
``tracer.metrics.snapshot()``.  The worker tag of replayed events is
scheduling noise and is left out of the digest.  Regenerate with
``python -m tests.obs.test_telemetry_equivalence`` only for an
intentional change to what is recorded, and justify the diff.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro.core.ifecc import IFECC
from repro.core.oracles import BFSOracle
from repro.directed.eccentricity import directed_ifecc_eccentricities
from repro.directed.graph import DirectedGraph
from repro.graph.generators import barabasi_albert
from repro.obs.trace import MemorySink, deterministic_view, tracing
from repro.parallel.pool import shutdown_pools

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_telemetry.json"


def _strongly_connected_digraph(n: int, extra: int, seed: int) -> DirectedGraph:
    """A directed cycle over all vertices plus random extra arcs."""
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            arcs.append((int(u), int(v)))
    return DirectedGraph.from_arcs(arcs, num_vertices=n)


def _ifecc_ba2k() -> None:
    IFECC(barabasi_albert(2000, 4, seed=7)).run()


def _directed_ifecc() -> None:
    directed_ifecc_eccentricities(_strongly_connected_digraph(300, 900, 5))


def _naive_process() -> None:
    try:
        graph = barabasi_albert(300, 3, seed=21)
        BFSOracle(graph, backend="process", workers=2).ecc_all()
    finally:
        shutdown_pools()


RUNS: Dict[str, Callable[[], None]] = {
    "ifecc_ba2k": _ifecc_ba2k,
    "directed_ifecc": _directed_ifecc,
    "naive_process_w2": _naive_process,
}


def _scalar(value: Any) -> Any:
    return value.item()


def capture(run: Callable[[], None]) -> Dict[str, Any]:
    """Trace ``run`` once; return its pinned observables."""
    sink = MemorySink()
    with tracing(sink) as tracer:
        run()
        metrics = tracer.metrics.snapshot()
    view = [
        {k: v for k, v in event.items() if k != "worker"}
        for event in deterministic_view(sink.events)
    ]
    text = json.dumps(view, sort_keys=True, default=_scalar)
    return {
        "events_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "event_names": dict(
            sorted(Counter(str(e.get("name")) for e in view).items())
        ),
        # A JSON round trip gives the snapshot the file's types.
        "metrics": json.loads(json.dumps(metrics, default=_scalar)),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_telemetry_matches_pinned(name: str, golden) -> None:
    got = capture(RUNS[name])
    want = golden[name]
    assert got["event_names"] == want["event_names"]
    assert got["events_sha256"] == want["events_sha256"]
    assert got["metrics"] == want["metrics"]


if __name__ == "__main__":
    payload = {name: capture(run) for name, run in sorted(RUNS.items())}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {GOLDEN_PATH}")
