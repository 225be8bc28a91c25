"""The generators' graphs are pinned bit for bit.

``tests/data/golden_generators.json`` holds sha256(``indptr`` ‖
``indices``) of every dataset stand-in at a small scale, of the two web
stand-ins the end-to-end benchmark runs at its own scale, and of each
public generator at fixed seeds.  A change to how graphs are built
(the builder, a generator's draw order, the component extraction) must
leave every digest unchanged; ``benchmarks/e2e/expected.json`` and the
golden IFECC corpus pin results computed *on* the graphs, this pins the
graphs themselves.

If an intentional change to a generator ever breaks this, regenerate
the file with ``python -m tests.graph.test_golden_generators`` and
justify the diff in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.datasets.loader import build_standin, scaled_spec
from repro.datasets.registry import dataset_names, get_spec
from repro.graph.components import split_components
from repro.graph.csr import Graph
from repro.graph.generators import (
    attach_branches,
    attach_deep_trap,
    attach_handles,
    balanced_tree,
    barabasi_albert,
    complete_graph,
    copying_model,
    cycle_graph,
    grid_graph,
    paper_example_graph,
    path_graph,
    star_graph,
    watts_strogatz,
)

from helpers import attach_periphery, core_periphery, erdos_renyi

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_generators.json"

#: Stand-in size multiplier of the registry entries (keeps the corpus
#: to a few seconds while every recipe step still runs).
STANDIN_SCALE = 0.1

#: The web stand-ins at the scale the end-to-end benchmark's
#: ``ed-web-large`` and ``batch-ecc`` workloads build them (seed 0 runs
#: them unrelabelled), so the benchmark's own inputs are pinned too.
E2E_WEB_GRAPHS = ("TWIT", "UKUN")
E2E_WEB_SCALE = 0.75


def digest(graph: Graph) -> Dict[str, object]:
    """sha256 over the little-endian CSR arrays, with the graph's size."""
    h = hashlib.sha256()
    h.update(graph.indptr.astype("<i8").tobytes())
    h.update(graph.indices.astype("<i4").tobytes())
    return {
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "sha256": h.hexdigest(),
    }


def _base() -> Graph:
    return barabasi_albert(120, 2, seed=13)


def _split(index: int) -> Graph:
    return split_components(erdos_renyi(300, 0.004, seed=9))[index][0]


def build_corpus() -> Dict[str, Callable[[], Graph]]:
    """Name -> graph factory of every pinned graph."""
    corpus: Dict[str, Callable[[], Graph]] = {
        f"standin/{name}": (
            lambda name=name: build_standin(
                scaled_spec(get_spec(name), STANDIN_SCALE)
            )
        )
        for name in dataset_names()
    }
    corpus.update(
        {
            f"standin@{E2E_WEB_SCALE:g}/{name}": (
                lambda name=name: build_standin(
                    scaled_spec(get_spec(name), E2E_WEB_SCALE)
                )
            )
            for name in E2E_WEB_GRAPHS
        }
    )
    corpus.update(
        {
            "ba/300-3-s1": lambda: barabasi_albert(300, 3, seed=1),
            "ba/200-1-s2": lambda: barabasi_albert(200, 1, seed=2),
            "copy/400-4-0.7-s3": lambda: copying_model(400, 4, 0.7, seed=3),
            "copy/300-2-0.0-s4": lambda: copying_model(300, 2, 0.0, seed=4),
            "copy/300-3-1.0-s5": lambda: copying_model(300, 3, 1.0, seed=5),
            "ws/200-4-0.0-s5": lambda: watts_strogatz(200, 4, 0.0, seed=5),
            "ws/200-6-0.3-s6": lambda: watts_strogatz(200, 6, 0.3, seed=6),
            "ws/50-4-1.0-s7": lambda: watts_strogatz(50, 4, 1.0, seed=7),
            "er/200-0.03-s8": lambda: erdos_renyi(200, 0.03, seed=8),
            "er/40-1.0-s1": lambda: erdos_renyi(40, 1.0, seed=1),
            "er/150-0.0-s1": lambda: erdos_renyi(150, 0.0, seed=1),
            "er/0-0.5-s1": lambda: erdos_renyi(0, 0.5, seed=1),
            "core_periphery/60-40-s9": lambda: core_periphery(60, 40, seed=9),
            "core_periphery/10-0-s9": lambda: core_periphery(10, 0, 0.5, seed=9),
            "attach_periphery/12-9-s10": lambda: attach_periphery(
                _base(), 12, 9, seed=10
            ),
            "attach_periphery/5-1-a2": lambda: attach_periphery(
                _base(), 5, 1, seed=10, num_anchors=2
            ),
            "attach_handles/10-12-s11": lambda: attach_handles(
                _base(), 10, 12, seed=11
            ),
            "attach_deep_trap/15-3": lambda: attach_deep_trap(_base(), 15, 3),
            "attach_deep_trap/7-0-a5": lambda: attach_deep_trap(
                _base(), 7, branch_length=0, anchor=5
            ),
            "attach_branches/10-8-s12": lambda: attach_branches(
                _base(), 10, 8, seed=12
            ),
            "attach_branches/6-5-s12-pool60": lambda: attach_branches(
                _base(), 6, 5, seed=12, max_anchor_id=60
            ),
            "split/er300-0": lambda: _split(0),
            "split/er300-1": lambda: _split(1),
            "split/er300-2": lambda: _split(2),
            "path/1": lambda: path_graph(1),
            "path/10": lambda: path_graph(10),
            "cycle/7": lambda: cycle_graph(7),
            "star/6": lambda: star_graph(6),
            "complete/6": lambda: complete_graph(6),
            "grid/1x1": lambda: grid_graph(1, 1),
            "grid/1x5": lambda: grid_graph(1, 5),
            "grid/4x6": lambda: grid_graph(4, 6),
            "tree/2-0": lambda: balanced_tree(2, 0),
            "tree/1-4": lambda: balanced_tree(1, 4),
            "tree/3-3": lambda: balanced_tree(3, 3),
            "paper": paper_example_graph,
        }
    )
    return corpus


CORPUS = build_corpus()


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_corpus_matches_golden_names(golden) -> None:
    assert sorted(CORPUS) == sorted(golden)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_graph_bit_identical(name: str, golden) -> None:
    assert digest(CORPUS[name]()) == golden[name], f"{name} changed"


if __name__ == "__main__":
    payload = {name: digest(make()) for name, make in sorted(CORPUS.items())}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
