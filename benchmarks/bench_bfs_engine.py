"""BFS engine benchmark — seed kernel vs. hybrid vs. process backend.

First point of the repo's perf trajectory: times the direction-optimizing
pooled-workspace :class:`repro.graph.engine.BFSEngine` against (a) a
faithful copy of the seed level-synchronous kernel (per-run allocation,
``np.unique`` frontier dedupe) and (b) the engine forced top-down, on the
generator suite (paper example, random power-law, grid, star).  Writes
machine-readable ``BENCH_bfs_engine.json`` at the repository root with
per-run top-down/bottom-up level counts, direction switches and
edges-inspected counts, so Figure 8-style runtime claims are auditable.
The three kernels take turns within each of :data:`ROUNDS` timing
rounds, and each row reports every kernel's median round (the rounds
themselves are kept in ``round_seconds``).  Alongside it the suite writes
``BENCH_trace_ifecc.jsonl`` — a structured :mod:`repro.obs.record` run
record of one traced IFECC run on the power-law graph — so every perf
PR carries a replayable probe-by-probe account, not just aggregates.

Two more rows ride along on the same graphs.  The *weighted* row runs
the Δ-stepping Dijkstra (:func:`repro.weighted.dijkstra.dijkstra_distances`)
with seeded integer weights 1–7 and records ms per run, ns per scanned
arc and ``edges_inspected / edges_scanned`` (the in-bucket re-scans);
each distance vector is checked against its shortest-path certificate.
The *directed* row runs the forward and backward engines of a seeded
orientation of the graph (:func:`repro.graph.engine.engine_for`) and
checks them against the seed kernel over the out- and in-CSR.

The *backend shootout* section additionally races the full-ED
eccentricity sweep across backends — seed kernel, in-process hybrid
engine, and the process backend at several worker counts
(:mod:`repro.parallel`) — and writes ``BENCH_parallel_backend.json``
with speedup-vs-cores plus the host's ``effective_cpus``, asserting the
eccentricities are bit-identical across every configuration.

Every artifact lands in the directory of ``--out`` (the repository root
by default): the report, the run record and, unless ``--parallel-out``
names another path, the shootout scorecard.

Run standalone::

    python benchmarks/bench_bfs_engine.py            # full suite (n >= 50k)
    python benchmarks/bench_bfs_engine.py --smoke    # CI-sized graphs
    python benchmarks/bench_bfs_engine.py --smoke --shootout-only \
        --workers 1,2                                # backend race only

or via pytest (smoke-sized, asserts the shape claims)::

    pytest benchmarks/bench_bfs_engine.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.graph.csr import Graph
from repro.graph.engine import BFSEngine, engine_for
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    paper_example_graph,
    star_graph,
)
from repro.graph.traversal import UNREACHED
from repro.obs.trace import MemorySink, Stopwatch, tracing
from repro.weighted.dijkstra import dijkstra_distances
from repro.weighted.graph import WeightedGraph

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_bfs_engine.json"
DEFAULT_TRACE_OUT = REPO_ROOT / "BENCH_trace_ifecc.jsonl"
DEFAULT_PARALLEL_OUT = REPO_ROOT / "BENCH_parallel_backend.json"

#: The aggregate-speedup claim the JSON must witness on the power-law
#: graph (hybrid vs. seed kernel) in full mode.
TARGET_SPEEDUP = 1.5

#: Speedup the process backend targets at 4 workers vs. the hybrid
#: engine — achievable only on hosts that actually expose >= 4 cores;
#: the report records ``effective_cpus`` so a miss on a constrained box
#: is distinguishable from a regression.
PARALLEL_TARGET_SPEEDUP = 2.0
PARALLEL_TARGET_WORKERS = 4

#: Timing rounds of the kernel suite.  Each round times every kernel of
#: a row once, one after the other, and the row reports each kernel's
#: median round, so a slow spell of a shared host lands on all of them.
ROUNDS = 5


# ----------------------------------------------------------------------
# Seed kernel (faithful copy of the pre-engine bfs_distances_bounded)
# ----------------------------------------------------------------------
def seed_bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """The original level-synchronous kernel: fresh O(n) state per run,
    every duplicate neighbor materialised, ``np.unique`` sort per level."""
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        csum = np.cumsum(counts)
        offsets = np.repeat(starts - (csum - counts), counts)
        neighbors = indices[np.arange(total, dtype=np.int64) + offsets]
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        level += 1
        dist[fresh] = level
        frontier = np.unique(fresh).astype(np.int64)
    return dist


# ----------------------------------------------------------------------
# Suite definition
# ----------------------------------------------------------------------
def suite_graphs(smoke: bool) -> Dict[str, Tuple[str, Graph]]:
    """Benchmark graphs: ``name -> (family, graph)``."""
    if smoke:
        return {
            "paper-example": ("paper example", paper_example_graph()),
            "powerlaw-4k": (
                "random power-law",
                barabasi_albert(4_000, 4, seed=7),
            ),
            "grid-40x30": ("grid", grid_graph(40, 30)),
            "star-3k": ("star", star_graph(3_000)),
        }
    return {
        "paper-example": ("paper example", paper_example_graph()),
        "powerlaw-50k": (
            "random power-law",
            barabasi_albert(50_000, 4, seed=7),
        ),
        "grid-250x200": ("grid", grid_graph(250, 200)),
        "star-50k": ("star", star_graph(50_000)),
    }


def pick_sources(graph: Graph, count: int, seed: int = 0) -> List[int]:
    """Max-degree vertex plus seeded random vertices (BFS sources)."""
    rng = np.random.default_rng(seed)
    sources = [graph.max_degree_vertex()]
    while len(sources) < min(count, graph.num_vertices):
        v = int(rng.integers(0, graph.num_vertices))
        if v not in sources:
            sources.append(v)
    return sources


def direction_counts(directions: Sequence[str]) -> Dict[str, int]:
    """A run's per-level directions as ``td_levels``/``bu_levels`` and
    the number of ``switches`` between consecutive levels."""
    return {
        "td_levels": sum(1 for d in directions if d == "td"),
        "bu_levels": sum(1 for d in directions if d == "bu"),
        "switches": sum(
            1 for a, b in zip(directions, directions[1:]) if a != b
        ),
    }


def _time_rounds(
    kernels: Dict[str, Callable[[int], object]],
    sources: Sequence[int],
) -> Dict[str, List[float]]:
    """Each kernel's total seconds over all sources in each of
    :data:`ROUNDS` rounds, the kernels taking turns within a round."""
    times: Dict[str, List[float]] = {name: [] for name in kernels}
    for _ in range(ROUNDS):
        for name, kernel in kernels.items():
            watch = Stopwatch()
            for s in sources:
                kernel(s)
            times[name].append(watch.elapsed())
    return times


def bench_graph(
    name: str,
    family: str,
    graph: Graph,
    num_sources: int,
) -> Dict[str, object]:
    """Time the three kernels on one graph and audit the hybrid runs."""
    sources = pick_sources(graph, num_sources)
    # Dedicated engines so pooled buffers are warm but stats are ours.
    hybrid = BFSEngine(graph)
    topdown = BFSEngine(graph)

    # Correctness audit + per-run direction/edge accounting (untimed).
    runs: List[Dict[str, object]] = []
    # Each run's record is its bfs.run event.
    sink = MemorySink()
    for s in sources:
        expected = seed_bfs_distances(graph, s)
        sink.clear()
        with tracing(sink):
            got = hybrid.run(s, mode="hybrid")
        if not np.array_equal(expected, got):
            raise AssertionError(
                f"hybrid BFS disagrees with seed kernel on {name}, "
                f"source {s}"
            )
        (run,) = sink.events
        runs.append(
            {
                "source": s,
                "eccentricity": run["ecc"],
                "levels": run["levels"],
                **direction_counts(run["directions"]),
                "edges_scanned": run["edges_scanned"],
                "edges_inspected": run["edges_inspected"],
            }
        )

    times = _time_rounds(
        {
            "seed": lambda s: seed_bfs_distances(graph, s),
            "topdown": lambda s: topdown.run(s, mode="top-down"),
            "hybrid": lambda s: hybrid.run(s, mode="hybrid"),
        },
        sources,
    )
    seed_s, td_s, hy_s = (
        statistics.median(times[mode]) for mode in ("seed", "topdown", "hybrid")
    )
    return {
        "name": name,
        "family": family,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "sources": sources,
        "rounds": ROUNDS,
        "round_seconds": times,
        "seed_seconds": seed_s,
        "topdown_seconds": td_s,
        "hybrid_seconds": hy_s,
        "speedup_topdown_vs_seed": seed_s / td_s if td_s else float("inf"),
        "speedup_hybrid_vs_seed": seed_s / hy_s if hy_s else float("inf"),
        "runs": runs,
    }


def weighted_from(graph: Graph, seed: int = 0) -> WeightedGraph:
    """``graph`` with seeded integer weights 1..7, one per edge (both
    arcs of an edge agree)."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    dst = graph.indices.astype(np.int64)
    key = np.minimum(src, dst) * n + np.maximum(src, dst)
    edges, edge_of_arc = np.unique(key, return_inverse=True)
    weights = np.random.default_rng(seed).integers(1, 8, size=edges.size)
    return WeightedGraph(
        graph.indptr, graph.indices, weights[edge_of_arc].astype(np.float64)
    )


def oriented_from(graph: Graph, seed: int = 0) -> DirectedGraph:
    """Each edge ``u < v`` as the arc ``u -> v``, plus ``v -> u`` for a
    seeded half of the edges."""
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    dst = graph.indices.astype(np.int64)
    up = src < dst
    src, dst = src[up], dst[up]
    back = np.random.default_rng(seed).random(src.size) < 0.5
    arcs = zip(
        np.concatenate([src, dst[back]]).tolist(),
        np.concatenate([dst, src[back]]).tolist(),
    )
    return DirectedGraph.from_arcs(arcs, num_vertices=graph.num_vertices)


def check_shortest_paths(
    graph: WeightedGraph, source: int, dist: np.ndarray
) -> bool:
    """``dist`` is the shortest-path vector from ``source``.

    With positive weights it is the one vector that is 0 at the source
    and, everywhere else, the minimum over in-arcs of ``dist[u] + w``.
    """
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    best = np.full(graph.num_vertices, np.inf)
    np.minimum.at(best, graph.indices, dist[src] + graph.weights)
    best[source] = 0.0
    return bool(np.array_equal(best, dist))


def bench_weighted(
    name: str, graph: Graph, num_sources: int
) -> Dict[str, object]:
    """Time the Δ-stepping Dijkstra on ``graph`` with weights 1..7."""
    wgraph = weighted_from(graph)
    sources = pick_sources(graph, num_sources)
    counter = TraversalCounter()
    for s in sources:
        if not check_shortest_paths(
            wgraph, s, dijkstra_distances(wgraph, s, counter=counter)
        ):
            raise AssertionError(
                f"Dijkstra distances fail their certificate on {name}, "
                f"source {s}"
            )
    times = _time_rounds(
        {"dijkstra": lambda s: dijkstra_distances(wgraph, s)}, sources
    )["dijkstra"]
    seconds = statistics.median(times)
    return {
        "name": name,
        "weights": "integer 1-7",
        "sources": sources,
        "rounds": ROUNDS,
        "seconds": seconds,
        "ms_per_run": 1e3 * seconds / len(sources),
        "ns_per_arc": 1e9 * seconds / max(counter.edges_scanned, 1),
        "edges_scanned": counter.edges_scanned,
        "edges_inspected": counter.edges_inspected,
        "inspected_per_scanned": counter.edges_inspected
        / max(counter.edges_scanned, 1),
        "relaxations": counter.relaxations,
        "certified": True,
    }


def bench_directed(
    name: str, graph: Graph, num_sources: int
) -> Dict[str, object]:
    """Time the forward and backward engines of an orientation of
    ``graph``, each checked against the seed kernel on its CSR."""
    dg = oriented_from(graph)
    sources = pick_sources(graph, num_sources)
    entry: Dict[str, object] = {
        "name": name,
        "num_arcs": dg.num_arcs,
        "sources": sources,
        "rounds": ROUNDS,
    }
    # A CSR has the indptr / indices / num_vertices the seed kernel reads.
    views = {"forward": dg.out_csr, "backward": dg.in_csr}
    for side, csr in views.items():
        engine = engine_for(dg, backward=side == "backward")
        counter = TraversalCounter()
        for s in sources:
            got = engine.run(s, counter=counter)
            if not np.array_equal(got, seed_bfs_distances(csr, s)):  # type: ignore[arg-type]
                raise AssertionError(
                    f"{side} engine disagrees with the seed kernel on "
                    f"{name}, source {s}"
                )
        scanned = counter.edges_scanned
        inspected = counter.edges_inspected
        times = _time_rounds({side: engine.run}, sources)[side]
        seconds = statistics.median(times)
        entry[side] = {
            "seconds": seconds,
            "ms_per_run": 1e3 * seconds / len(sources),
            # Per inspected arc: bottom-up levels inspect arcs they
            # never scan, so scanned counts can be near zero.
            "ns_per_arc": 1e9 * seconds / max(inspected, 1),
            "edges_scanned": scanned,
            "edges_inspected": inspected,
            "bit_identical": True,
        }
    return entry


def run_suite(
    smoke: bool,
    num_sources: int,
    out_path: Path,
) -> Dict[str, object]:
    """Run every suite graph and write the JSON report."""
    from repro.graph.engine import ALPHA, BETA

    graphs = suite_graphs(smoke)
    results = []
    weighted: List[Dict[str, object]] = []
    directed: List[Dict[str, object]] = []
    for name, (family, graph) in graphs.items():
        print(
            f"[bench_bfs_engine] {name}: n={graph.num_vertices} "
            f"m={graph.num_edges} ..."
        )
        entry = bench_graph(name, family, graph, num_sources)
        print(
            "  seed {seed_seconds:.4f}s  top-down {topdown_seconds:.4f}s  "
            "hybrid {hybrid_seconds:.4f}s  (hybrid speedup "
            "{speedup_hybrid_vs_seed:.2f}x)".format(**entry)  # type: ignore[str-format]
        )
        results.append(entry)
        weighted.append(bench_weighted(name, graph, num_sources))
        print(
            "  weighted {ms_per_run:.3f} ms/run  {ns_per_arc:.0f} ns/arc  "
            "inspected/scanned {inspected_per_scanned:.3f}".format(
                **weighted[-1]
            )
        )
        directed.append(bench_directed(name, graph, num_sources))
        print(
            "  directed fwd {:.3f} ms/run  bwd {:.3f} ms/run".format(
                directed[-1]["forward"]["ms_per_run"],  # type: ignore[index]
                directed[-1]["backward"]["ms_per_run"],  # type: ignore[index]
            )
        )
    powerlaw = next(r for r in results if r["family"] == "random power-law")
    report: Dict[str, object] = {
        "schema": "bench_bfs_engine/v1",
        "mode": "smoke" if smoke else "full",
        "alpha": ALPHA,
        "beta": BETA,
        "target_speedup": TARGET_SPEEDUP,
        "graphs": results,
        "weighted": weighted,
        "directed": directed,
        "aggregate": {
            "seed_seconds": sum(r["seed_seconds"] for r in results),  # type: ignore[misc]
            "topdown_seconds": sum(r["topdown_seconds"] for r in results),  # type: ignore[misc]
            "hybrid_seconds": sum(r["hybrid_seconds"] for r in results),  # type: ignore[misc]
            "powerlaw_speedup_hybrid_vs_seed": powerlaw[
                "speedup_hybrid_vs_seed"
            ],
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_bfs_engine] wrote {out_path}")

    from bench_common import write_trace_record

    powerlaw_name = str(powerlaw["name"])
    trace_path = out_path.parent / DEFAULT_TRACE_OUT.name
    trace_record = write_trace_record(graphs[powerlaw_name][1], trace_path)
    print(
        f"[bench_bfs_engine] wrote {trace_path} "
        f"({len(trace_record.events)} events, "
        f"{trace_record.result.get('num_traversals', '?')} traversals)"
    )
    return report


# ----------------------------------------------------------------------
# Backend shootout (seed vs hybrid vs process x workers)
# ----------------------------------------------------------------------
def _effective_cpus() -> int:
    """Cores this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _shootout_sources(graph: Graph, count: Optional[int]) -> np.ndarray:
    """Max-degree vertex + seeded distinct random sources (or all)."""
    n = graph.num_vertices
    if count is None or count >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(0)
    picks = rng.choice(n, size=count, replace=False).astype(np.int64)
    picks[0] = graph.max_degree_vertex()
    return np.unique(picks)


def _seed_ecc_sweep(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Full-ED over ``sources`` with the seed kernel (the PR-2 baseline)."""
    ecc = np.empty(len(sources), dtype=np.int32)
    for i, s in enumerate(sources):
        dist = seed_bfs_distances(graph, int(s))
        reached = dist[dist != UNREACHED]
        ecc[i] = int(reached.max()) if len(reached) else 0
    return ecc


def run_shootout(
    smoke: bool,
    workers_list: Sequence[int],
    num_sources: Optional[int],
    repeats: int,
    out_path: Path,
) -> Dict[str, object]:
    """Race the ED sweep across backends; write the JSON scorecard.

    ``num_sources=None`` sweeps every vertex (the true full ED).
    """
    from repro.graph.batch import ecc_batch
    from repro.parallel.pool import pool_for

    if smoke:
        name, graph = "powerlaw-4k", barabasi_albert(4_000, 4, seed=7)
    else:
        name, graph = "powerlaw-50k", barabasi_albert(50_000, 4, seed=7)
    sources = _shootout_sources(graph, num_sources)
    print(
        f"[bench_parallel] {name}: n={graph.num_vertices} "
        f"m={graph.num_edges} sources={len(sources)} "
        f"effective_cpus={_effective_cpus()}"
    )

    reference = ecc_batch(graph, sources)

    def time_config(run: Callable[[], np.ndarray]) -> Tuple[float, bool]:
        """Best-of-``repeats`` seconds + bit-identity vs. the reference."""
        best = float("inf")
        identical = True
        for _ in range(max(1, repeats)):
            watch = Stopwatch()
            ecc = run()
            best = min(best, watch.elapsed())
            identical = identical and np.array_equal(ecc, reference)
        return best, identical

    configs: List[Dict[str, object]] = []
    seed_s, seed_ok = time_config(lambda: _seed_ecc_sweep(graph, sources))
    configs.append(
        {"config": "seed", "workers": 0, "seconds": seed_s,
         "bit_identical": seed_ok}
    )
    print(f"  seed kernel      {seed_s:.4f}s")
    hybrid_s, hybrid_ok = time_config(lambda: ecc_batch(graph, sources))
    configs.append(
        {"config": "hybrid", "workers": 0, "seconds": hybrid_s,
         "bit_identical": hybrid_ok}
    )
    print(f"  hybrid engine    {hybrid_s:.4f}s")
    for workers in workers_list:
        def on_pool(batch: np.ndarray) -> np.ndarray:
            return ecc_batch(graph, batch, backend="process", workers=workers)

        pool = pool_for(graph, workers=workers)
        try:
            on_pool(sources[: min(16, len(sources))])  # warm-up
            proc_s, proc_ok = time_config(lambda: on_pool(sources))
        finally:
            pool.close()
        configs.append(
            {
                "config": f"process x{workers}",
                "workers": workers,
                "seconds": proc_s,
                "bit_identical": proc_ok,
                "speedup_vs_hybrid": hybrid_s / proc_s if proc_s else 0.0,
            }
        )
        print(
            f"  process x{workers}       {proc_s:.4f}s "
            f"({hybrid_s / proc_s:.2f}x vs hybrid)"
        )

    all_identical = all(bool(c["bit_identical"]) for c in configs)
    best_speedup = max(
        (float(c.get("speedup_vs_hybrid", 0.0)) for c in configs), default=0.0
    )
    report: Dict[str, object] = {
        "schema": "bench_parallel_backend/v1",
        "mode": "smoke" if smoke else "full",
        "graph": name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_sources": int(len(sources)),
        "full_ed": bool(len(sources) == graph.num_vertices),
        "repeats": repeats,
        "effective_cpus": _effective_cpus(),
        "target_speedup": PARALLEL_TARGET_SPEEDUP,
        "target_workers": PARALLEL_TARGET_WORKERS,
        "configs": configs,
        "bit_identical": all_identical,
        "best_speedup_vs_hybrid": best_speedup,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_parallel] wrote {out_path}")
    if not all_identical:
        raise AssertionError(
            "backend shootout produced non-identical eccentricities"
        )
    return report


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized, asserts the shape claims)
# ----------------------------------------------------------------------
def test_engine_beats_seed_kernel(benchmark, tmp_path) -> None:  # type: ignore[no-untyped-def]
    """Hybrid ≡ seed on every suite graph; bottom-up fires on the dense
    families; the JSON report and the run record land beside the given
    output path (a temporary one, so the committed full-size report
    stays as recorded)."""
    out_path = tmp_path / DEFAULT_OUT.name
    trace_path = tmp_path / DEFAULT_TRACE_OUT.name
    report = benchmark.pedantic(
        lambda: run_suite(
            smoke=True, num_sources=3, out_path=out_path
        ),
        rounds=1,
        iterations=1,
    )
    graphs = {g["name"]: g for g in report["graphs"]}
    # Direction switching engages on the scale-free and star families.
    for name in ("powerlaw-4k", "star-3k"):
        runs = graphs[name]["runs"]
        assert sum(r["bu_levels"] for r in runs) > 0
        assert all(
            r["td_levels"] + r["bu_levels"] == r["levels"] for r in runs
        )
    # Bottom-up levels inspect edges they never scan.
    for r in graphs["powerlaw-4k"]["runs"]:
        assert r["edges_inspected"] >= r["edges_scanned"]
    # The weighted and directed rows cover every suite graph, checked.
    assert [w["name"] for w in report["weighted"]] == list(graphs)
    for w in report["weighted"]:
        assert w["certified"] and w["inspected_per_scanned"] >= 1.0
    assert [d["name"] for d in report["directed"]] == list(graphs)
    for d in report["directed"]:
        assert d["forward"]["bit_identical"] and d["backward"]["bit_identical"]
    assert out_path.exists()
    assert json.loads(out_path.read_text()) == report
    # The run-record artifact rides along and round-trips.
    assert trace_path.exists()
    from repro.obs.record import RunRecord

    rec = RunRecord.read_jsonl(str(trace_path))
    assert rec.result["exact"] is True
    assert len(rec.probe_events()) == rec.result["num_traversals"]


def test_parallel_backend_shootout(benchmark, tmp_path) -> None:  # type: ignore[no-untyped-def]
    """Process backend is bit-identical to the hybrid engine on the
    smoke graph; the scorecard JSON lands at the given (temporary)
    path, leaving the committed full-size scorecard as recorded."""
    out_path = tmp_path / DEFAULT_PARALLEL_OUT.name
    report = benchmark.pedantic(
        lambda: run_shootout(
            smoke=True,
            workers_list=[2],
            num_sources=48,
            repeats=1,
            out_path=out_path,
        ),
        rounds=1,
        iterations=1,
    )
    assert report["bit_identical"] is True
    assert report["effective_cpus"] >= 1
    assert out_path.exists()
    assert json.loads(out_path.read_text()) == report
    process_cfgs = [
        c for c in report["configs"] if c["config"].startswith("process")
    ]
    assert process_cfgs and all(c["seconds"] > 0 for c in process_cfgs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized graphs (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: repo-root BENCH_bfs_engine.json); "
        "the other artifacts are written beside it",
    )
    parser.add_argument("--sources", type=int, default=None)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of repeats of each backend-shootout configuration",
    )
    parser.add_argument(
        "--shootout-only",
        action="store_true",
        help="skip the kernel suite, run only the backend shootout",
    )
    parser.add_argument(
        "--no-shootout",
        action="store_true",
        help="skip the backend shootout",
    )
    parser.add_argument(
        "--workers",
        type=str,
        default="1,2,4",
        help="comma-separated worker counts for the shootout",
    )
    parser.add_argument(
        "--parallel-out",
        type=Path,
        default=None,
        help="shootout JSON path (default: BENCH_parallel_backend.json "
        "next to --out)",
    )
    parser.add_argument(
        "--full-ed",
        action="store_true",
        help="shootout sweeps every vertex instead of a source sample",
    )
    args = parser.parse_args(argv)
    num_sources = args.sources if args.sources else (3 if args.smoke else 8)
    status = 0
    if not args.shootout_only:
        report = run_suite(args.smoke, num_sources, args.out)
        speedup = report["aggregate"]["powerlaw_speedup_hybrid_vs_seed"]  # type: ignore[index]
        if not args.smoke and speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: hybrid speedup {speedup:.2f}x below the "
                f"{TARGET_SPEEDUP}x target on the power-law graph"
            )
            status = 1
    if not args.no_shootout:
        workers_list = [int(w) for w in args.workers.split(",") if w]
        shootout_sources = (
            None if args.full_ed else (48 if args.smoke else 512)
        )
        shootout = run_shootout(
            args.smoke,
            workers_list,
            shootout_sources,
            args.repeats,
            args.parallel_out
            or args.out.parent / DEFAULT_PARALLEL_OUT.name,
        )
        if not args.smoke:
            best = float(shootout["best_speedup_vs_hybrid"])  # type: ignore[arg-type]
            cpus = int(shootout["effective_cpus"])  # type: ignore[arg-type]
            if best < PARALLEL_TARGET_SPEEDUP:
                print(
                    f"WARNING: process-backend speedup {best:.2f}x below "
                    f"the {PARALLEL_TARGET_SPEEDUP}x target "
                    f"(effective_cpus={cpus})"
                )
                if cpus >= PARALLEL_TARGET_WORKERS:
                    status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
