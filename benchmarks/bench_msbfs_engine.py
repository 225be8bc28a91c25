"""MS-BFS engine shootout — seed lane kernel vs. lane engine vs. loop.

Times a 64-source batch (the unit of Then et al.'s bit-parallel MS-BFS,
the paper's reference [35]) through four contenders on the generator
suite shared with :mod:`bench_bfs_engine`:

* ``seed-msbfs`` — a faithful copy of the seed repo's 1-D uint64 lane
  kernel (top-down only, ``np.bitwise_or.at`` scatter per level);
* ``lanes-top-down`` — :class:`repro.graph.msengine.MSBFSEngine` forced
  top-down (vectorised CSR gathers, transposed recording);
* ``lanes-hybrid`` — the engine with direction-optimizing switching
  (``np.bitwise_or.reduceat`` bottom-up levels) and per-lane retirement;
* ``loop-hybrid`` — the single-source hybrid :class:`repro.graph.engine.
  BFSEngine` looped over the batch (what every consumer paid before the
  batch seam existed).

Both batch products are raced — the eccentricity reduction
(``ecc_batch``, the headline) and the full ``(k, n)`` distance-rows
product — and every contender's distances are asserted bit-identical to
the seed kernels before anything is timed.  Every timing is the median
of interleaved rounds: the contenders of a row take turns within each
round (``--repeats`` rounds; :data:`COLUMN_REPEATS` for the column
row), so a slow spell of a shared host lands on all of them.  A width-scaling section
times 64/128/256-source batches on the power-law graph as 1/2/4 lane
groups through :func:`repro.graph.batch.lane_groups` against the loop,
and checks that the planner sweeps every batch 64 lanes at a time.  A
column-sweep row times one 64-lane sweep on BA-2k (the ``ed-powerlaw``
graph family) recording 0 / 100 / 1,000 / all target columns, the
solver's FFO probe product, against the bare ``ecc_batch`` sweep.  A
sweep-width table prices, on every suite graph and on BA-2k, the first
lane batch of an IFECC-1 territory: column sweeps of 8, 16 and 64 of
the reference's farthest-first probes over the members Lemma 3.1
leaves unresolved, in units of one single-source probe over the same
columns, beside the width :func:`repro.graph.msengine.plan_sweep_width`
gives that batch.
Writes machine-readable ``BENCH_msbfs_engine.json`` at the repository
root.

Run standalone::

    python benchmarks/bench_msbfs_engine.py            # full (n >= 50k)
    python benchmarks/bench_msbfs_engine.py --smoke    # CI-sized graphs

or via pytest (smoke-sized, asserts bit-identity and the report shape)::

    pytest benchmarks/bench_msbfs_engine.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import statistics
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from bench_bfs_engine import seed_bfs_distances, suite_graphs
from repro.core.bounds import BoundState
from repro.core.ffo import compute_ffo
from repro.graph.batch import lane_groups, sweep_columns
from repro.graph.csr import Graph
from repro.graph.engine import ALPHA, BETA, BFSEngine, gather_csr_arcs
from repro.graph.generators import barabasi_albert
from repro.graph.msengine import (
    LANE_WORD_BITS,
    MSBFSEngine,
    plan_lane_width,
    plan_sweep_width,
)
from repro.graph.traversal import UNREACHED
from repro.obs.benchguard import COLUMN_OVERHEAD_LIMIT, extractor_for
from repro.obs.trace import MemorySink, Stopwatch, tracing

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_msbfs_engine.json"

#: The speedup the JSON must witness in full mode on the power-law
#: graph: hybrid-lane ``ecc_batch`` vs. looping the single-source
#: hybrid engine over the same 64 sources.
TARGET_SPEEDUP = 2.0

#: Distance rows carry an O(n*k) transpose the eccentricity reduction
#: skips, so the rows product gets a softer target.
ROWS_TARGET_SPEEDUP = 1.5

#: Headline batch size — one full uint64 lane word.
BATCH = 64

#: Target columns recorded by the column-sweep row (``None``: every
#: vertex; 0 is the bare ``ecc_batch`` sweep).
COLUMN_TARGETS = (0, 100, 1000, None)

#: Timing rounds of the column row (a sweep takes about a millisecond).
COLUMN_REPEATS = 30

#: Lane widths the sweep-width table prices.
SWEEP_WIDTHS = (8, 16, 64)

#: Single-source probes whose median time is the table's cost unit.
SWEEP_UNIT_PROBES = 8


# ----------------------------------------------------------------------
# Seed MS-BFS kernel (faithful copy of the pre-engine lane sweep)
# ----------------------------------------------------------------------
def seed_msbfs_rows(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """The seed repo's 64-lane kernel: 1-D uint64 bitmaps, top-down only,
    per-level ``bitwise_or.at`` scatter and dense lane unpack.

    :dtype: int32, shape ``(k, n)``
    """
    n = graph.num_vertices
    k = len(sources)
    if k > 64:
        raise ValueError("seed kernel holds at most 64 lanes")
    dist = np.full((k, n), -1, dtype=np.int32)
    seen = np.zeros(n, dtype=np.uint64)
    frontier = np.zeros(n, dtype=np.uint64)
    scratch = np.zeros(n, dtype=np.uint64)
    lanes = np.arange(k, dtype=np.uint64)
    lane_bits = np.uint64(1) << lanes
    np.bitwise_or.at(frontier, sources, lane_bits)
    np.bitwise_or.at(seen, sources, lane_bits)
    dist[lanes.astype(np.int64), sources] = 0

    indptr, indices = graph.indptr, graph.indices
    level = 0
    active = np.flatnonzero(frontier)
    while len(active):
        level += 1
        next_mask = scratch
        next_mask.fill(0)
        counts = indptr[active + 1] - indptr[active]
        arc_dst, _seg = gather_csr_arcs(indptr, indices, active, counts)
        if len(arc_dst) == 0:
            break
        arc_masks = np.repeat(frontier[active], counts)
        np.bitwise_or.at(next_mask, arc_dst, arc_masks)
        next_mask &= ~seen
        newly = np.flatnonzero(next_mask)
        if len(newly) == 0:
            break
        seen[newly] |= next_mask[newly]
        new_bits = (next_mask[newly, None] >> lanes) & np.uint64(1)
        vert_idx, lane_idx = np.nonzero(new_bits)
        dist[lane_idx, newly[vert_idx]] = level
        scratch, frontier = frontier, next_mask
        active = newly
    return dist


def seed_msbfs_ecc(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Eccentricities via the seed lane kernel (unreached -> ignored)."""
    rows = seed_msbfs_rows(graph, sources)
    return np.where(rows != -1, rows, 0).max(axis=1).astype(np.int32)


# ----------------------------------------------------------------------
# Contenders
# ----------------------------------------------------------------------
def batch_sources(graph: Graph, count: int, seed: int = 0) -> np.ndarray:
    """``count`` seeded distinct sources, max-degree vertex included."""
    n = graph.num_vertices
    count = min(count, n)
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=count, replace=False).astype(np.int64)
    picks[0] = graph.max_degree_vertex()
    return np.unique(picks)


def _loop_rows(engine: BFSEngine, sources: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((len(sources), n), dtype=np.int32)
    for i, s in enumerate(sources):
        out[i, :] = engine.run(int(s), mode="hybrid")
    return out


def _loop_ecc(engine: BFSEngine, sources: np.ndarray) -> np.ndarray:
    out = np.empty(len(sources), dtype=np.int32)
    for i, s in enumerate(sources):
        engine.run(int(s), mode="hybrid")
        out[i] = engine.last_ecc
    return out


def _time_rounds(
    contenders: Dict[str, Callable[[], object]], rounds: int
) -> Dict[str, float]:
    """Each contender's median seconds over ``rounds`` rounds, the
    contenders taking turns within a round."""
    times: Dict[str, List[float]] = {name: [] for name in contenders}
    for _ in range(max(1, rounds)):
        for name, run in contenders.items():
            watch = Stopwatch()
            run()
            times[name].append(watch.elapsed())
    return {name: statistics.median(t) for name, t in times.items()}


def bench_graph(
    name: str,
    family: str,
    graph: Graph,
    repeats: int,
) -> Dict[str, object]:
    """Race the four contenders on one graph's 64-source batch."""
    n = graph.num_vertices
    sources = batch_sources(graph, BATCH)
    k = len(sources)
    ms = MSBFSEngine(graph)
    loop = BFSEngine(graph)

    # --- bit-identity audit (untimed): every contender must agree with
    # the seed lane kernel, which must agree with the seed single-source
    # kernel.  The ecc reductions must match the rows they summarise.
    expected = seed_msbfs_rows(graph, sources)
    for i, s in enumerate(sources):
        if not np.array_equal(expected[i], seed_bfs_distances(graph, int(s))):
            raise AssertionError(
                f"seed lane kernel disagrees with seed BFS on {name}, "
                f"source {int(s)}"
            )
    for mode in ("top-down", "hybrid"):
        got = ms.run_batch(sources, mode=mode)
        if not np.array_equal(expected, got):
            raise AssertionError(
                f"MSBFSEngine mode={mode} disagrees with the seed lane "
                f"kernel on {name}"
            )
    expected_ecc = np.where(expected != UNREACHED, expected, 0).max(axis=1)
    # The hybrid sweep's record is its msbfs.run event.
    sink = MemorySink()
    with tracing(sink):
        hybrid_ecc = ms.ecc_batch(sources)
    (stats,) = [e for e in sink.events if e["name"] == "msbfs.run"]
    for ecc in (
        hybrid_ecc,
        ms.ecc_batch(sources, mode="top-down"),
        _loop_ecc(loop, sources),
    ):
        if not np.array_equal(expected_ecc, ecc):
            raise AssertionError(f"ecc reduction mismatch on {name}")

    # --- timed: the eccentricity batch (headline) ...
    ecc_s = _time_rounds(
        {
            "seed-msbfs": lambda: seed_msbfs_ecc(graph, sources),
            "lanes-top-down": lambda: ms.ecc_batch(sources, mode="top-down"),
            "lanes-hybrid": lambda: ms.ecc_batch(sources),
            "loop-hybrid": lambda: _loop_ecc(loop, sources),
        },
        repeats,
    )
    # ... and the full (k, n) distance-rows product.
    rows_s = _time_rounds(
        {
            "seed-msbfs": lambda: seed_msbfs_rows(graph, sources),
            "lanes-top-down": lambda: ms.run_batch(sources, mode="top-down"),
            "lanes-hybrid": lambda: ms.run_batch(sources),
            "loop-hybrid": lambda: _loop_rows(loop, sources, n),
        },
        repeats,
    )
    return {
        "name": name,
        "family": family,
        "num_vertices": n,
        "num_edges": graph.num_edges,
        "batch": k,
        "planned_width": plan_lane_width(len(graph.indices), k),
        "rounds": repeats,
        "ecc_seconds": ecc_s,
        "rows_seconds": rows_s,
        "speedup_ecc_vs_loop": ecc_s["loop-hybrid"] / ecc_s["lanes-hybrid"]
        if ecc_s["lanes-hybrid"]
        else float("inf"),
        "speedup_rows_vs_loop": rows_s["loop-hybrid"] / rows_s["lanes-hybrid"]
        if rows_s["lanes-hybrid"]
        else float("inf"),
        "speedup_ecc_vs_seed_msbfs": ecc_s["seed-msbfs"]
        / ecc_s["lanes-hybrid"]
        if ecc_s["lanes-hybrid"]
        else float("inf"),
        "hybrid_stats": {
            "levels": stats["levels"],
            "bottom_up_levels": stats["directions"].count("bu"),
            "edges_scanned": stats["edges_scanned"],
            "edges_inspected": stats["edges_inspected"],
            "words_touched": stats["words_touched"],
        },
    }


def bench_width_scaling(
    graph: Graph, name: str, repeats: int
) -> List[Dict[str, object]]:
    """Hybrid eccentricity batches of one, two and four lane groups.

    Each batch runs at its planned width through the batch seam's
    lane-group loop; its eccentricities must equal the loop's.
    """
    loop = BFSEngine(graph)
    entries: List[Dict[str, object]] = []
    for batch in (64, 128, 256):
        sources = batch_sources(graph, batch)
        if len(sources) < batch:
            continue
        width = plan_lane_width(len(graph.indices), len(sources))
        if not np.array_equal(
            lane_groups(graph, sources, width), _loop_ecc(loop, sources)
        ):
            raise AssertionError(
                f"lane groups disagree with the loop on {name}, "
                f"batch {len(sources)}"
            )
        timed = _time_rounds(
            {
                "lanes": lambda: lane_groups(graph, sources, width),
                "loop": lambda: _loop_ecc(loop, sources),
            },
            repeats,
        )
        ms_s, loop_s = timed["lanes"], timed["loop"]
        entries.append(
            {
                "batch": int(len(sources)),
                "planned_width": width,
                "lane_groups": -(-len(sources) // width) if width else 0,
                "lanes_hybrid_seconds": ms_s,
                "loop_hybrid_seconds": loop_s,
                "speedup_vs_loop": loop_s / ms_s if ms_s else float("inf"),
            }
        )
        print(
            f"  width-scaling batch={len(sources):>3} (width {width}): "
            f"lanes {ms_s:.4f}s  loop {loop_s:.4f}s "
            f"({loop_s / ms_s:.2f}x)"
        )
    return entries


def bench_column_sweeps() -> Dict[str, object]:
    """One 64-lane sweep on BA-2k by number of recorded target columns.

    The graph is ``ed-powerlaw``'s family at any suite size.  Every
    column sweep is checked against the full distance rows before it
    is timed; zero targets time the bare ``ecc_batch`` sweep, and
    ``overhead_vs_ecc`` divides each median time by that sweep's.  The
    four sweeps take turns within each of ``COLUMN_REPEATS`` rounds.
    """
    graph = barabasi_albert(2000, 4, seed=7)
    n = graph.num_vertices
    sources = batch_sources(graph, BATCH)
    engine = MSBFSEngine(graph)
    rows = engine.run_batch(sources)
    rng = np.random.default_rng(0)
    contenders: Dict[str, Callable[[], object]] = {}
    for count in COLUMN_TARGETS:
        targets = (
            np.arange(n)
            if count is None
            else np.sort(rng.choice(n, count, replace=False))
        )
        eccs, cols = engine.column_batch(sources, targets)
        if not (
            np.array_equal(cols, rows[:, targets])
            and np.array_equal(eccs, rows.max(axis=1))
        ):
            raise AssertionError(
                f"column sweep of {len(targets)} targets disagrees with "
                f"the distance rows"
            )
        contenders[str(len(targets))] = (
            partial(engine.column_batch, sources, targets)
            if len(targets)
            else partial(engine.ecc_batch, sources)
        )
    medians = _time_rounds(contenders, COLUMN_REPEATS)
    timed = [(int(count), seconds) for count, seconds in medians.items()]
    ecc_s = timed[0][1]
    entries: List[Dict[str, object]] = []
    for count, seconds in timed:
        entries.append(
            {
                "targets": count,
                "seconds": seconds,
                "overhead_vs_ecc": seconds / ecc_s,
            }
        )
        print(
            f"  column sweep, {count:>4} targets: {seconds * 1e3:.2f} ms "
            f"({seconds / ecc_s:.2f}x ecc_batch)"
        )
    return {
        "graph": "barabasi_albert(2000, 4, seed=7)",
        "num_vertices": n,
        "batch": len(sources),
        "rounds": COLUMN_REPEATS,
        "rows": entries,
    }


def bench_sweep_width(name: str, graph: Graph, repeats: int) -> Dict[str, object]:
    """Price an IFECC-1 territory's first lane batch on ``graph``.

    The reference is the highest-degree vertex, its territory every
    other vertex, and the batch's columns the members the Lemma 3.1
    seed leaves unresolved, as in the solver.  The probes are the
    front of the reference's farthest-first order.  A ``k``-lane column
    sweep of the first ``k`` probes is priced as a multiple of the
    median single-source probe of the first ``SWEEP_UNIT_PROBES`` (each
    through :func:`repro.graph.batch.sweep_columns`, as the BFS oracle
    runs them), and every lane is checked against that probe's column.
    The single probes and the sweeps take turns within each of
    ``repeats`` rounds, and each is timed by its median round.
    ``first_width`` is the batch the solver plans there, capped at one
    lane word.
    """
    n = graph.num_vertices
    reference = graph.max_degree_vertex()
    ffo = compute_ffo(graph, reference)
    bounds = BoundState(n)
    members = np.flatnonzero(np.arange(n) != reference)
    bounds.apply_lemma31(
        ffo.distances, ffo.distances, ffo.eccentricity, subset=members
    )
    targets = bounds.unresolved_subset(members)
    probes = [int(v) for v in ffo.order if v != reference]
    probes = probes[: max(SWEEP_WIDTHS)]
    singles = [
        sweep_columns(graph, [s], targets)[1][0]
        for s in probes[:SWEEP_UNIT_PROBES]
    ]
    for k in SWEEP_WIDTHS:
        cols = sweep_columns(graph, probes[:k], targets)[1]
        if not all(np.array_equal(a, b) for a, b in zip(cols, singles)):
            raise AssertionError(
                f"{k}-lane column sweep disagrees with single probes on {name}"
            )
    contenders: Dict[str, Callable[[], object]] = {
        f"probe {s}": partial(sweep_columns, graph, [s], targets)
        for s in probes[:SWEEP_UNIT_PROBES]
    }
    for k in SWEEP_WIDTHS:
        contenders[f"{k} lanes"] = partial(
            sweep_columns, graph, probes[:k], targets
        )
    medians = _time_rounds(contenders, repeats)
    unit = statistics.median(
        medians[f"probe {s}"] for s in probes[:SWEEP_UNIT_PROBES]
    )
    costs = {
        str(k): medians[f"{k} lanes"] / unit if unit else float("inf")
        for k in SWEEP_WIDTHS
    }
    width = min(plan_sweep_width(0, len(targets)), LANE_WORD_BITS)
    print(
        f"  sweep width {name}: |U|={len(targets)} first width {width}, "
        + " ".join(f"{k} lanes {c:.1f}x" for k, c in costs.items())
    )
    return {
        "graph": name,
        "num_vertices": n,
        "num_arcs": int(len(graph.indices)),
        "unresolved": int(len(targets)),
        "probes": len(probes),
        "first_width": width,
        "single_probe_seconds": unit,
        "lane_cost_in_single_probes": costs,
    }


def run_suite(
    smoke: bool,
    repeats: int,
    out_path: Path,
) -> Dict[str, object]:
    """Run the shootout on every suite graph; write the JSON report."""
    graphs = suite_graphs(smoke)
    results = []
    for name, (family, graph) in graphs.items():
        print(
            f"[bench_msbfs_engine] {name}: n={graph.num_vertices} "
            f"m={graph.num_edges} batch={min(BATCH, graph.num_vertices)} ..."
        )
        entry = bench_graph(name, family, graph, repeats)
        ecc_s = entry["ecc_seconds"]
        print(
            "  ecc: seed-msbfs {seed:.4f}s  td-lanes {td:.4f}s  "
            "hybrid-lanes {hy:.4f}s  loop {loop:.4f}s  "
            "({speed:.2f}x vs loop)".format(
                seed=ecc_s["seed-msbfs"],  # type: ignore[index]
                td=ecc_s["lanes-top-down"],  # type: ignore[index]
                hy=ecc_s["lanes-hybrid"],  # type: ignore[index]
                loop=ecc_s["loop-hybrid"],  # type: ignore[index]
                speed=entry["speedup_ecc_vs_loop"],
            )
        )
        results.append(entry)
    powerlaw = next(r for r in results if r["family"] == "random power-law")
    powerlaw_graph = graphs[str(powerlaw["name"])][1]
    print(f"[bench_msbfs_engine] width scaling on {powerlaw['name']}:")
    scaling = bench_width_scaling(powerlaw_graph, str(powerlaw["name"]), repeats)
    print("[bench_msbfs_engine] column sweeps on BA-2k:")
    columns = bench_column_sweeps()
    print("[bench_msbfs_engine] first FFO lane batch, in single probes:")
    width_graphs = {name: graph for name, (_, graph) in graphs.items()}
    width_graphs["ba2k"] = barabasi_albert(2000, 4, seed=7)
    sweep_width = {
        "widths": list(SWEEP_WIDTHS),
        "unit_probes": SWEEP_UNIT_PROBES,
        "rounds": repeats,
        "rows": [
            bench_sweep_width(name, graph, repeats)
            for name, graph in width_graphs.items()
        ],
    }
    report: Dict[str, object] = {
        "schema": "bench_msbfs_engine/v1",
        "mode": "smoke" if smoke else "full",
        "alpha": ALPHA,
        "beta": BETA,
        "batch": BATCH,
        "target_speedup": TARGET_SPEEDUP,
        "rows_target_speedup": ROWS_TARGET_SPEEDUP,
        "bit_identical": True,  # bench_graph raises otherwise
        "graphs": results,
        "width_scaling": scaling,
        "column_sweeps": columns,
        "sweep_width": sweep_width,
        "aggregate": {
            "powerlaw_speedup_ecc_vs_loop": powerlaw["speedup_ecc_vs_loop"],
            "powerlaw_speedup_rows_vs_loop": powerlaw["speedup_rows_vs_loop"],
            "powerlaw_speedup_ecc_vs_seed_msbfs": powerlaw[
                "speedup_ecc_vs_seed_msbfs"
            ],
            "powerlaw_column_overhead_vs_ecc": columns["rows"][-1][  # type: ignore[index]
                "overhead_vs_ecc"
            ],
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_msbfs_engine] wrote {out_path}")
    return report


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized, asserts bit-identity + report shape)
# ----------------------------------------------------------------------
def test_msbfs_engine_shootout(benchmark, tmp_path) -> None:  # type: ignore[no-untyped-def]
    """Every contender agrees bit for bit on every smoke graph; the
    report lands at the given (temporary) path with all four
    contenders timed, leaving the committed full-size report as
    recorded."""
    out_path = tmp_path / DEFAULT_OUT.name
    report = benchmark.pedantic(
        lambda: run_suite(smoke=True, repeats=1, out_path=out_path),
        rounds=1,
        iterations=1,
    )
    assert report["bit_identical"] is True
    assert out_path.exists()
    assert json.loads(out_path.read_text()) == report
    for entry in report["graphs"]:
        assert set(entry["ecc_seconds"]) == {
            "seed-msbfs",
            "lanes-top-down",
            "lanes-hybrid",
            "loop-hybrid",
        }
        assert all(s >= 0 for s in entry["ecc_seconds"].values())
    # Every batch of the ladder sweeps 64 lanes at a time, as 1/2/4
    # lane groups; bench_width_scaling raised if any differed from the
    # loop.
    ladder = report["width_scaling"]
    assert [e["batch"] for e in ladder] == [64, 128, 256]
    assert all(e["planned_width"] == LANE_WORD_BITS for e in ladder)
    assert [e["lane_groups"] for e in ladder] == [1, 2, 4]
    # The column row sweeps BA-2k with 0 / 100 / 1,000 / all targets;
    # bench_column_sweeps raised if any column differed from the rows.
    columns = report["column_sweeps"]
    assert [r["targets"] for r in columns["rows"]] == [0, 100, 1000, 2000]
    assert columns["rows"][0]["overhead_vs_ecc"] == 1.0
    assert report["aggregate"]["powerlaw_column_overhead_vs_ecc"] == (
        columns["rows"][-1]["overhead_vs_ecc"]
    )
    # Every graph has a sweep-width row (bench_sweep_width raised if a
    # lane differed from its single probe); benchguard's claim on it
    # holds for the smoke run too.
    widths = report["sweep_width"]
    assert [r["graph"] for r in widths["rows"]] == [
        *(g["name"] for g in report["graphs"]),
        "ba2k",
    ]
    for row in widths["rows"]:
        assert set(row["lane_cost_in_single_probes"]) == {"8", "16", "64"}
    claims = [
        f
        for f in extractor_for(report["schema"])(str(out_path), report)[1]
        if "sweep-width" in f.message
    ]
    assert len(claims) == 1 and not claims[0].failed, claims


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
        help="output JSON path (default: repo-root BENCH_msbfs_engine.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="interleaved timing rounds per row (medians are reported)",
    )
    args = parser.parse_args(argv)
    report = run_suite(args.smoke, args.repeats, args.out)
    status = 0
    if not args.smoke:
        agg = report["aggregate"]
        ecc_speed = float(agg["powerlaw_speedup_ecc_vs_loop"])  # type: ignore[index]
        rows_speed = float(agg["powerlaw_speedup_rows_vs_loop"])  # type: ignore[index]
        if ecc_speed < TARGET_SPEEDUP:
            print(
                f"WARNING: hybrid-lane ecc speedup {ecc_speed:.2f}x below "
                f"the {TARGET_SPEEDUP}x target on the power-law graph"
            )
            status = 1
        if rows_speed < ROWS_TARGET_SPEEDUP:
            print(
                f"WARNING: hybrid-lane rows speedup {rows_speed:.2f}x below "
                f"the {ROWS_TARGET_SPEEDUP}x target on the power-law graph"
            )
            status = 1
        overhead = float(agg["powerlaw_column_overhead_vs_ecc"])  # type: ignore[index]
        if overhead > COLUMN_OVERHEAD_LIMIT:
            print(
                f"WARNING: all-column sweep {overhead:.2f}x a bare ecc "
                f"sweep on BA-2k, above the {COLUMN_OVERHEAD_LIMIT}x limit"
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
