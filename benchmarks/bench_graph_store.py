"""Graph-store cold-open benchmark — parse/build vs. mmap open.

Times the three ways to get a dataset stand-in into memory:

* **parse** — read the edge-list text file and rebuild CSR with
  :class:`repro.graph.builder.GraphBuilder` (what every run did before
  the store existed);
* **npz** — load the compressed ``.npz`` CSR dump (the old disk cache:
  no parse, but a full decompress-and-copy);
* **store** — ``repro.store.open_store`` on a ``.rcsr`` container
  (header read + ``np.memmap`` views, O(1) in the graph size).

Writes machine-readable ``BENCH_graph_store.json`` at the repository
root with per-dataset open times and the store-vs-parse speedup, and
asserts the tentpole claim: store open at least
:data:`TARGET_SPEEDUP` x faster than edge-list parse+build on the
largest stand-in benchmarked.  A ``first_touch_seconds`` column records
the cost of actually faulting every mapped page (one full scan), so the
"open is free, pages stream in on demand" story is auditable rather
than hidden.

Each dataset also records what building its stand-in costs
(:func:`repro.datasets.loader.build_standin`): ``build_seconds`` (best
of ``--repeats``, untraced), ``build_peak_bytes`` (the tracemalloc peak
of one more build), ``csr_bytes`` (the result's
:meth:`~repro.graph.csr.Graph.memory_bytes`) and their ratio
``build_peak_ratio``, which ``repro bench check`` holds at most
:data:`repro.obs.benchguard.BUILD_PEAK_LIMIT`.

Run standalone::

    python benchmarks/bench_graph_store.py           # UKUN (largest stand-in)
    python benchmarks/bench_graph_store.py --smoke   # DBLP (CI-sized)

or via pytest (smoke-sized, asserts the speedup claim)::

    pytest benchmarks/bench_graph_store.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import tempfile
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.collection import GraphCollection
from repro.datasets.loader import build_standin
from repro.datasets.registry import get_spec
from repro.errors import GraphConstructionError
from repro.graph.csr import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs.benchguard import BUILD_PEAK_LIMIT
from repro.obs.trace import Stopwatch
from repro.store.format import open_store

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_graph_store.json"

#: The acceptance claim: store open beats edge-list parse+build by at
#: least this factor on the largest stand-in benchmarked.
TARGET_SPEEDUP = 10.0

#: Datasets per mode (ordered small -> large; the claim is checked on
#: the last one).
SMOKE_DATASETS = ("DBLP",)
FULL_DATASETS = ("DBLP", "SKIT", "UKUN")


def save_npz(graph: Graph, path: Path) -> None:
    """Save the CSR arrays in compressed ``.npz`` form."""
    np.savez_compressed(path, indptr=graph.indptr, indices=graph.indices)


def load_npz(path: Path) -> Graph:
    """Load a graph previously written by :func:`save_npz`.

    The archive's arrays go through the same checks as every
    :class:`~repro.graph.csr.CSR` (dtype kinds, shapes, a monotone
    ``indptr`` with the right endpoints, ``indices`` bounds), so a
    corrupt or hand-edited archive fails here with
    :class:`GraphConstructionError`, naming the file.
    """
    with np.load(path) as data:
        if "indptr" not in data or "indices" not in data:
            raise GraphConstructionError(
                f"{path}: not a graph archive (missing indptr/indices)"
            )
        raw_indptr = data["indptr"]
        raw_indices = data["indices"]
    try:
        return Graph(raw_indptr, raw_indices)
    except GraphConstructionError as exc:
        raise GraphConstructionError(f"{path}: {exc}") from exc


def _best_of(repeats: int, run) -> float:  # type: ignore[no-untyped-def]
    best = float("inf")
    for _ in range(max(1, repeats)):
        watch = Stopwatch()
        run()
        best = min(best, watch.elapsed())
    return best


def bench_build(name: str, repeats: int) -> Dict[str, object]:
    """Time one stand-in build and trace its memory peak."""
    spec = get_spec(name)
    build_s = _best_of(repeats, lambda: build_standin(spec))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graph = build_standin(spec)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    csr_bytes = graph.memory_bytes()
    return {
        "build_seconds": build_s,
        "build_peak_bytes": peak,
        "csr_bytes": csr_bytes,
        "build_peak_ratio": peak / csr_bytes,
    }


def bench_dataset(
    name: str,
    collection: GraphCollection,
    workdir: Path,
    repeats: int,
) -> Dict[str, object]:
    """Time parse / npz / store opens of one dataset stand-in."""
    info = collection.materialize(name)
    graph = open_store(info.path)

    edge_path = workdir / f"{name.lower()}.txt"
    npz_path = workdir / f"{name.lower()}.npz"
    write_edge_list(graph, edge_path)
    save_npz(graph, npz_path)

    parse_s = _best_of(repeats, lambda: read_edge_list(edge_path))
    npz_s = _best_of(repeats, lambda: load_npz(npz_path))
    store_s = _best_of(repeats, lambda: open_store(info.path))

    # One full page-fault pass: what "actually reading the graph" adds
    # on top of the O(1) open.
    def first_touch() -> int:
        opened = open_store(info.path)
        return int(opened.indptr.sum() + opened.indices.sum())

    touch_s = _best_of(repeats, first_touch)

    # The opens must agree bit-for-bit with the parsed graph.
    parsed = read_edge_list(edge_path)
    mapped = open_store(info.path)
    if not (
        np.array_equal(parsed.indptr, mapped.indptr)
        and np.array_equal(parsed.indices, mapped.indices)
    ):
        raise AssertionError(f"{name}: store open disagrees with parse")

    return {
        "name": name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "store_bytes": info.file_bytes,
        "fingerprint": info.digest,
        "repeats": repeats,
        "parse_seconds": parse_s,
        "npz_seconds": npz_s,
        "store_open_seconds": store_s,
        "first_touch_seconds": touch_s,
        "speedup_store_vs_parse": (
            parse_s / store_s if store_s else float("inf")
        ),
        "speedup_store_vs_npz": npz_s / store_s if store_s else float("inf"),
        **bench_build(name, repeats),
    }


def run_suite(
    smoke: bool,
    repeats: int,
    out_path: Path,
    root: Optional[Path] = None,
) -> Dict[str, object]:
    """Benchmark every mode dataset and write the JSON report."""
    datasets = SMOKE_DATASETS if smoke else FULL_DATASETS
    results: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        workdir = Path(tmp)
        collection = GraphCollection(root if root else workdir / "collection")
        for name in datasets:
            print(f"[bench_graph_store] {name} ...")
            entry = bench_dataset(name, collection, workdir, repeats)
            print(
                "  parse {parse_seconds:.4f}s  npz {npz_seconds:.4f}s  "
                "store {store_open_seconds:.6f}s  "
                "({speedup_store_vs_parse:.0f}x vs parse)  "
                "build {build_seconds:.4f}s, peak {build_peak_ratio:.2f}x "
                "the CSR".format(**entry)  # type: ignore[str-format]
            )
            results.append(entry)
    largest = results[-1]
    report: Dict[str, object] = {
        "schema": "bench_graph_store/v1",
        "mode": "smoke" if smoke else "full",
        "target_speedup": TARGET_SPEEDUP,
        "build_peak_limit": BUILD_PEAK_LIMIT,
        "datasets": results,
        "aggregate": {
            "largest": largest["name"],
            "largest_speedup_store_vs_parse": largest[
                "speedup_store_vs_parse"
            ],
            "claim_met": bool(
                float(largest["speedup_store_vs_parse"])  # type: ignore[arg-type]
                >= TARGET_SPEEDUP
            ),
            "max_build_peak_ratio": max(
                float(entry["build_peak_ratio"])  # type: ignore[arg-type]
                for entry in results
            ),
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_graph_store] wrote {out_path}")
    return report


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized, asserts the speedup claim)
# ----------------------------------------------------------------------
def test_store_open_beats_parse(benchmark, tmp_path) -> None:  # type: ignore[no-untyped-def]
    """Store open is >= 10x faster than parse+build even on the
    smallest stand-in; the JSON report lands at the given (temporary)
    path, leaving the committed full-size report as recorded."""
    out_path = tmp_path / DEFAULT_OUT.name
    report = benchmark.pedantic(
        lambda: run_suite(smoke=True, repeats=3, out_path=out_path),
        rounds=1,
        iterations=1,
    )
    assert out_path.exists()
    assert json.loads(out_path.read_text()) == report
    assert report["aggregate"]["claim_met"] is True
    for entry in report["datasets"]:
        assert entry["speedup_store_vs_parse"] >= TARGET_SPEEDUP
        # npz already skips parsing; beating it too shows the win is
        # the zero-copy mapping, not just the binary encoding.
        assert entry["store_open_seconds"] < entry["npz_seconds"]
        assert entry["build_peak_ratio"] <= BUILD_PEAK_LIMIT


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized dataset (DBLP) instead of the full ladder",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: repo-root BENCH_graph_store.json)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="collection directory (default: a throwaway temp dir)",
    )
    args = parser.parse_args(argv)
    report = run_suite(args.smoke, args.repeats, args.out, args.root)
    aggregate = report["aggregate"]
    status = 0
    if not bool(aggregate["claim_met"]):  # type: ignore[index]
        largest = aggregate["largest_speedup_store_vs_parse"]  # type: ignore[index]
        print(
            f"WARNING: store-vs-parse speedup {float(largest):.1f}x below "  # type: ignore[arg-type]
            f"the {TARGET_SPEEDUP}x target"
        )
        status = 1
    ratio = float(aggregate["max_build_peak_ratio"])  # type: ignore[index]
    if ratio > BUILD_PEAK_LIMIT:
        print(
            f"WARNING: a stand-in build peaks at {ratio:.2f}x its CSR "
            f"bytes, above the {BUILD_PEAK_LIMIT:g}x limit"
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
