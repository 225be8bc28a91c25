"""Bit-identical equivalence of the generic solver on the unweighted path.

The metric-generic :class:`repro.core.solver.EccentricitySolver` replaced
the hand-written IFECC loop; the acceptance bar for that refactor is that
the unweighted instantiation is *bit-identical* to the pre-unification
implementation — same eccentricities, same BFS counts, same edge-scan
totals, same anytime snapshot stream, same kIFECC estimates, same
extremes certificates.

``tests/data/golden_ifecc.json`` was captured from the seed
implementation (commit 060a72f) on a fixed generator corpus.  The
BoundECC/OPEX entries and the extremes ``history`` were added later,
captured before BoundECC, OPEX and the extremes driver moved onto the
shared bound-and-select loop of :mod:`repro.core.framework`.  These
tests replay the corpus through the current implementation and demand an
exact match.  If an intentional algorithmic change ever breaks this,
regenerate the golden file with ``python -m tests.core.test_solver_equivalence``
and justify the diff in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.baselines.boundecc import boundecc_eccentricities
from repro.baselines.henderson import opex_eccentricities
from repro.core.extremes import radius_and_diameter
from repro.core.ifecc import IFECC
from repro.core.kifecc import approximate_eccentricities
from repro.counters import TraversalCounter
from repro.graph.components import split_components
from repro.graph.csr import Graph
from repro.graph.generators import (
    attach_handles,
    balanced_tree,
    barabasi_albert,
    grid_graph,
    paper_example_graph,
    watts_strogatz,
)

from helpers import core_periphery

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_ifecc.json"


def _largest_component(graph: Graph) -> Graph:
    parts = split_components(graph)
    return max(parts, key=lambda item: item[0].num_vertices)[0]


def build_corpus() -> Dict[str, Graph]:
    """The fixed generator corpus the golden file was captured on."""
    return {
        "paper": paper_example_graph(),
        "ba150": barabasi_albert(150, 3, seed=5),
        "ws120": watts_strogatz(120, 6, 0.1, seed=3),
        "grid9x13": grid_graph(9, 13),
        "tree2x6": balanced_tree(2, 6),
        "coreper": _largest_component(
            attach_handles(core_periphery(120, 30, seed=11), 5, 9, seed=12)
        ),
    }


def capture(graph: Graph) -> Dict[str, object]:
    """Record every observable of the solver on one graph."""
    record: Dict[str, object] = {}
    for refs in (1, 3):
        counter = TraversalCounter()
        engine = IFECC(graph, num_references=refs, counter=counter)
        snapshots = [
            [s.bfs_runs, s.source, s.resolved] for s in engine.steps()
        ]
        record[f"r{refs}_memo0"] = {
            "ecc": engine.bounds.eccentricities().tolist(),
            "num_bfs": counter.bfs_runs,
            "edges_scanned": counter.edges_scanned,
            "snapshots": snapshots,
        }
    k_result = approximate_eccentricities(graph, k=5)
    record["kifecc_k5"] = {
        "est": k_result.eccentricities.tolist(),
        "lower": k_result.lower.tolist(),
        "upper": k_result.upper.tolist(),
        "num_bfs": k_result.num_bfs,
        "exact": bool(k_result.exact),
    }
    counter = TraversalCounter()
    extremes = radius_and_diameter(graph, counter=counter)
    record["extremes"] = {
        "radius": extremes.radius,
        "diameter": extremes.diameter,
        "center": int(extremes.center_vertex),
        "periphery": int(extremes.peripheral_vertex),
        "num_bfs": counter.bfs_runs,
        "history": list(counter.history),
    }
    for key, baseline in (
        ("boundecc", boundecc_eccentricities),
        ("opex", opex_eccentricities),
    ):
        counter = TraversalCounter()
        result = baseline(graph, counter=counter)
        record[key] = {
            "ecc": result.eccentricities.tolist(),
            "lower": result.lower.tolist(),
            "upper": result.upper.tolist(),
            "num_bfs": result.num_bfs,
            "history": list(counter.history),
        }
    return record


#: Corpus records of the solver's removed ``memoize_distances=True``
#: mode.  The corpus file keeps them, byte-unchanged; no run makes them.
RETIRED_KEYS = ("r1_memo1", "r3_memo1")


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_bit_identical_to_seed(name: str, golden) -> None:
    graph = build_corpus()[name]
    got = capture(graph)
    want = {k: v for k, v in golden[name].items() if k not in RETIRED_KEYS}
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{name}/{key} diverged from seed"


if __name__ == "__main__":
    payload = {
        name: capture(graph) for name, graph in sorted(build_corpus().items())
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {GOLDEN_PATH}")
