"""Batched FFO probing: ``run()`` equals one traversal per probe.

:meth:`EccentricitySolver.run` takes a territory's sweep probes from
MS-BFS lane batches and applies each batch as one block, while
:meth:`EccentricitySolver.steps` takes one traversal per block.  Both
apply the same rows in the same FFO order, so the eccentricities,
bounds, traversal counts, counter history and the per-probe snapshots
(the ``solver.probe`` spans) must be identical; only the work counters
differ, by the lanes swept past the stopping rank.  ``run_budgeted(b)``
runs ``run()``'s loop with lane batches capped by the budget left, so it
equals ``steps()`` stopped at its first snapshot of ``b`` traversals.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifecc import compute_eccentricities
from repro.core.oracles import BFSOracle
from repro.core.solver import EccentricitySolver
from repro.counters import TraversalCounter
from repro.datasets.loader import load_dataset
from repro.directed.traversal import DirectedBFSOracle, backward_bfs
from repro.errors import InvalidParameterError
from repro.graph import msengine
from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert
from repro.graph.traversal import bfs_distances
from repro.obs.trace import MemorySink, deterministic_view, tracing
from repro.store import open_store, save_store
from repro.weighted.eccentricity import weighted_solver
from repro.weighted.dijkstra import DijkstraOracle, dijkstra_distances
from repro.weighted.graph import WeightedGraph

from core.test_solver_equivalence import build_corpus
from directed.test_directed import random_strongly_connected
from helpers import random_connected_graph, traced_peak_bytes

#: The snapshot fields a ``solver.probe`` span carries.
_PROBE_KEYS = (
    "probe",
    "source",
    "territory",
    "ffo_rank",
    "ecc",
    "traversals",
    "resolved",
    "remaining",
    "gap",
)


class ForwardingOracle:
    """Forwards every attribute, like the e2e benchmark's probe timer."""

    def __init__(self, oracle: Any) -> None:
        self._oracle = oracle

    def __getattr__(self, name: str) -> Any:
        return getattr(self._oracle, name)


def _observe(solver: EccentricitySolver, batched: bool) -> Dict[str, Any]:
    """Run ``solver`` traced, through ``run()`` or by exhausting ``steps()``."""
    sink = MemorySink()
    with tracing(sink):
        if batched:
            solver.run()
        else:
            snapshots = [(s.bfs_runs, s.source, s.resolved) for s in solver.steps()]
    events = deterministic_view(sink.events)
    probes = [e for e in events if e["name"] == "solver.probe"]
    observed = {
        "ecc": solver.bounds.eccentricities().tolist(),
        "lower": solver.bounds.lower.tolist(),
        "upper": solver.bounds.upper.tolist(),
        "num_bfs": solver.counter.bfs_runs,
        "history": list(solver.counter.history),
        "probes": [{k: e.get(k) for k in _PROBE_KEYS} for e in probes],
        "events": events,
    }
    if not batched:
        assert snapshots == [
            (p["traversals"], p["source"], p["resolved"]) for p in probes
        ]
    return observed


def _stored(graph: Any) -> Any:
    """``graph`` re-opened from a ``.rcsr`` store: read-only, memory-mapped
    CSR arrays, as the end-to-end workloads run on."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.rcsr"
        save_store(graph, path)
        return open_store(path)


def _compare(
    make_oracle: Any, graph: Any, refs: int, stored: bool
) -> Dict[str, Any]:
    """Assert ``run()`` == ``steps()`` on ``graph`` (or its stored copy);
    return the run's view."""
    if stored:
        graph = _stored(graph)
    views = [
        _observe(
            EccentricitySolver(
                make_oracle(graph),
                num_references=refs,
                counter=TraversalCounter(),
            ),
            batched,
        )
        for batched in (False, True)
    ]
    serial, batched = views
    for key in ("ecc", "lower", "upper", "num_bfs", "history", "probes"):
        assert batched[key] == serial[key], key
    return batched


def _lanes(events: List[Dict[str, Any]]) -> Tuple[int, int]:
    """``(lanes swept, probes consumed from lanes)`` of a traced run."""
    swept = sum(e["num_sources"] for e in events if e["name"] == "msbfs.run")
    singles = sum(1 for e in events if e["name"] == "bfs.run")
    runs = [e for e in events if e["name"] == "solver.run"]
    return swept, runs[0]["traversals"] - singles


@pytest.fixture(scope="module")
def ba2k() -> Graph:
    return barabasi_albert(2000, 4, seed=7)


@pytest.mark.parametrize("refs", [1, 3])
@pytest.mark.parametrize("stored", [False, True])
@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_corpus_run_equals_steps(name: str, refs: int, stored: bool) -> None:
    _compare(BFSOracle, build_corpus()[name], refs, stored)


@pytest.mark.parametrize("refs", [1, 3])
@pytest.mark.parametrize("stored", [False, True])
def test_ba2k_run_equals_steps_and_batches(
    ba2k: Graph, refs: int, stored: bool
) -> None:
    view = _compare(BFSOracle, ba2k, refs, stored)
    swept, from_lanes = _lanes(view["events"])
    assert swept > from_lanes > 0


@pytest.mark.parametrize(
    "make_oracle",
    [
        lambda g: ForwardingOracle(BFSOracle(g)),
        lambda g: BFSOracle(g, backend="process", workers=1),
    ],
    ids=["forwarding", "process"],
)
def test_wrapped_and_process_oracles_batch_identically(
    ba2k: Graph, make_oracle: Any
) -> None:
    view = _compare(make_oracle, ba2k, 1, False)
    assert _lanes(view["events"])[0] > 0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=160),
    extra=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    refs=st.sampled_from([1, 3]),
    stored=st.booleans(),
)
def test_random_graphs_run_equals_steps(
    n: int, extra: int, seed: int, refs: int, stored: bool
) -> None:
    # Territories this small sweep 64 lanes from their first probe.
    _compare(BFSOracle, random_connected_graph(n, extra, seed), refs, stored)


def test_lanes_discarded_is_swept_minus_consumed(ba2k: Graph) -> None:
    counter = TraversalCounter()
    sink = MemorySink()
    with tracing(sink):
        EccentricitySolver(BFSOracle(ba2k), counter=counter).run()
    events = deterministic_view(sink.events)
    swept, from_lanes = _lanes(events)
    assert counter.lanes_discarded == swept - from_lanes > 0
    (run_span,) = [e for e in events if e["name"] == "solver.run"]
    assert run_span["lanes_discarded"] == counter.lanes_discarded
    # Each lane sweep runs inside the probe span of the row that
    # triggered it, so the trace's layer split still adds up.
    probe_seqs = {e["seq"] for e in events if e["name"] == "solver.probe"}
    sweeps = [e for e in events if e["name"] == "msbfs.run"]
    assert sweeps and all(e["parent"] in probe_seqs for e in sweeps)


def _work(counter: TraversalCounter) -> Tuple[int, ...]:
    return (
        counter.bfs_runs,
        counter.edges_scanned,
        counter.edges_inspected,
        counter.vertices_visited,
        counter.relaxations,
        counter.lanes_discarded,
    )


def _steps_and_run(make_solver: Any) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    stepped = make_solver(TraversalCounter())
    for _ in stepped.steps():
        pass
    ran = make_solver(TraversalCounter())
    ran.run()
    return _work(stepped.counter), _work(ran.counter)


@pytest.fixture(scope="module")
def web() -> Graph:
    """A web stand-in with more arcs than one gather chunk holds."""
    graph = load_dataset("ABRA", scale=0.5)
    assert len(graph.indices) > 1 << 16
    return graph


@pytest.mark.parametrize("refs", [1, 3])
@pytest.mark.parametrize("stored", [False, True])
def test_graph_above_2_16_arcs_batches(
    web: Graph, refs: int, stored: bool
) -> None:
    view = _compare(BFSOracle, web, refs, stored)
    swept, from_lanes = _lanes(view["events"])
    assert swept > from_lanes > 0


def _weighted(base: Graph) -> WeightedGraph:
    rng = np.random.default_rng(4)
    return WeightedGraph.from_edges(
        [(u, v, float(rng.integers(1, 8))) for u, v in base.edges()],
        num_vertices=base.num_vertices,
    )


@pytest.mark.parametrize("refs, stored", [(1, False), (3, True)])
def test_directed_runs_take_lanes_weighted_runs_never_batch(
    refs: int, stored: bool
) -> None:
    # Directed run() sweeps backward lanes; its answers, runs, history
    # and probe spans equal steps()'.
    directed = random_strongly_connected(300, 600, seed=3)
    view = _compare(DirectedBFSOracle, directed, refs, stored)
    swept, from_lanes = _lanes(view["events"])
    assert swept >= from_lanes > 0
    assert {label.split(":")[0] for label in view["history"]} == {"fwd", "bwd"}
    # Dijkstra carries one probe per traversal, so run() takes no lanes
    # and every counter equals steps()'.
    weighted = _weighted(random_connected_graph(300, 150, seed=3))
    if stored:
        weighted = _stored(weighted)
    stepped, ran = _steps_and_run(
        lambda c: weighted_solver(weighted, counter=c)
    )
    assert ran == stepped and ran[-1] == 0
    assert ran[0] > msengine._SERIAL_BATCH_LIMIT


class TestPlanSweepWidth:
    @settings(max_examples=300, deadline=None)
    @given(
        consumed=st.integers(min_value=0, max_value=5000),
        unresolved=st.integers(min_value=1, max_value=1 << 22),
    )
    def test_block_cap_above_the_doubling_floor(
        self, consumed: int, unresolved: int
    ) -> None:
        width = msengine.plan_sweep_width(consumed, unresolved)
        floor = 1 if consumed < msengine._SERIAL_BATCH_LIMIT else consumed
        assert width >= floor
        # Wider than the floor only while the block fits its cells, and
        # never by a sweep narrower than a serial batch.
        if width != floor:
            assert width * unresolved <= msengine._BLOCK_CELLS
            assert width >= msengine._SERIAL_BATCH_LIMIT
        if unresolved <= msengine._BLOCK_CELLS // 64:
            assert width >= 64

    def test_serial_prefix_then_doubling_to_one_word(self) -> None:
        # The solver caps the plan by its oracle's lanes: one word for
        # BFS, one probe for Dijkstra.
        assert BFSOracle.sweep_lanes == DirectedBFSOracle.sweep_lanes == 64
        assert DijkstraOracle.sweep_lanes == 1
        # At a block's worth of open members the cap adds nothing, so
        # the doubling floor alone sets the width.
        consumed = (0, 7, 8, 16, 32, 64, 500)
        open_members = msengine._BLOCK_CELLS
        widths = [msengine.plan_sweep_width(c, open_members) for c in consumed]
        assert widths == [1, 1, 8, 16, 32, 64, 500]
        capped = [min(w, BFSOracle.sweep_lanes) for w in widths]
        assert capped == [1, 1, 8, 16, 32, 64, 64]


def _sweep_case(kind: str) -> Tuple[Any, Any, str]:
    """``(oracle, traversal(source) -> dist(., source), label)``."""
    base = random_connected_graph(400, 300, seed=9)
    if kind == "bfs":
        return BFSOracle(base), lambda s: bfs_distances(base, s), "bfs"
    if kind == "directed":
        digraph = random_strongly_connected(400, 900, seed=9)
        return (
            DirectedBFSOracle(digraph),
            lambda s: backward_bfs(digraph, s),
            "bwd",
        )
    weighted = _weighted(base)
    return (
        DijkstraOracle(weighted),
        lambda s: dijkstra_distances(weighted, s),
        "dijkstra",
    )


@pytest.mark.parametrize("kind", ["bfs", "directed", "dijkstra"])
def test_sweep_batch_matches_single_traversals(kind: str) -> None:
    oracle, traverse, label = _sweep_case(kind)
    n = oracle.num_vertices
    for sources in ([17], [5, 17, 399, 0]):
        for targets in ([], [17], [0, 5, 17, 200, 399], list(range(n))):
            counter = TraversalCounter()
            eccs, cols = oracle.sweep_batch(sources, targets, counter=counter)
            assert cols.shape == (len(sources), len(targets))
            assert cols.dtype == oracle.dtype
            # The directed backward BFS yields no forward eccentricity.
            assert len(eccs) == (0 if kind == "directed" else len(sources))
            for i, source in enumerate(sources):
                row = traverse(source)
                assert np.array_equal(cols[i], row[targets])
                if len(eccs):
                    assert eccs[i] == row.max()
            # Every graph here is (strongly) connected.
            assert counter.vertices_visited == len(sources) * n
            if len(sources) == 1:
                # One source is one traversal, credited as a run.
                assert counter.bfs_runs == 1
                assert counter.history == [f"{label}:17"]
                continue
            # Lanes turn into runs only once consumed; the work counters
            # credit the whole sweep, whatever it recorded.
            assert counter.bfs_runs == 0 and counter.history == []
            counter.consume_lanes(1)
            counter.discard_lanes()
            assert counter.history == [f"{label}:5"]
            assert (counter.bfs_runs, counter.lanes_discarded) == (1, 3)


@pytest.mark.parametrize(
    "refs, stored, want",
    [
        (1, False, (602, 33319, 427012, 1282000, 0, 39)),
        (1, True, (602, 33319, 427012, 1282000, 0, 39)),
        (3, False, (738, 39987, 590268, 1670000, 0, 97)),
        (3, True, (738, 39987, 590268, 1670000, 0, 97)),
    ],
)
def test_run_work_counters_pinned(
    ba2k: Graph, refs: int, stored: bool, want: Tuple[int, ...]
) -> None:
    """``run()``'s work on BA-2k (in memory or store-opened), pinned
    when lane batches took their width from the block
    (:func:`repro.graph.msengine.plan_sweep_width`).

    The swept and discarded lanes, and so every work counter, depend
    only on which sources each lane batch holds; these values show the
    batches are the ones that rule plans.  Runs and vertices visited
    follow from the consumed probes and the lanes swept.
    """
    counter = TraversalCounter()
    EccentricitySolver(
        BFSOracle(_stored(ba2k) if stored else ba2k),
        num_references=refs,
        counter=counter,
    ).run()
    assert _work(counter) == want


#: Budgets inside the serial prefix, at and past lane-batch boundaries
#: (8 + 1 = 9 traversals end the prefix, 17 the first 8-lane batch), and
#: unlimited.
_BUDGETS = (0, 1, 8, 9, 17, 40, 10**6)


def _stepped_to(solver: EccentricitySolver, budget: int) -> Dict[str, Any]:
    """What ``steps()`` leaves when stopped at ``budget`` traversals."""
    for snapshot in solver.steps():
        if snapshot.bfs_runs >= budget:
            break
    return _budget_view(solver, solver.bounds.all_resolved())


def _budget_view(solver: EccentricitySolver, exact: bool) -> Dict[str, Any]:
    return {
        "lower": solver.bounds.lower.tolist(),
        "upper": solver.bounds.upper.tolist(),
        "exact": exact,
        "num_bfs": solver.counter.bfs_runs,
        "history": list(solver.counter.history),
    }


def _assert_budgeted_equals_steps(
    make_solver: Any, budgets: Tuple[int, ...] = _BUDGETS
) -> None:
    for budget in budgets:
        want = _stepped_to(make_solver(), budget)
        solver = make_solver()
        result = solver.run_budgeted(budget)
        got = _budget_view(solver, result.exact)
        assert got == want, budget
        assert result.lower.tolist() == want["lower"]
        assert result.upper.tolist() == want["upper"]
        assert result.num_bfs == want["num_bfs"]


@pytest.mark.parametrize("refs", [1, 3])
@pytest.mark.parametrize("stored", [False, True])
@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_corpus_run_budgeted_equals_steps_stopped(
    name: str, refs: int, stored: bool
) -> None:
    graph = build_corpus()[name]
    if stored:
        graph = _stored(graph)
    _assert_budgeted_equals_steps(
        lambda: EccentricitySolver(BFSOracle(graph), num_references=refs)
    )


@pytest.mark.parametrize("refs", [1, 3])
@pytest.mark.parametrize("stored", [False, True])
def test_ba2k_run_budgeted_equals_steps_stopped(
    ba2k: Graph, refs: int, stored: bool
) -> None:
    graph = _stored(ba2k) if stored else ba2k
    _assert_budgeted_equals_steps(
        lambda: EccentricitySolver(BFSOracle(graph), num_references=refs)
    )


def test_budgeted_run_takes_lane_batches_within_budget(ba2k: Graph) -> None:
    sink = MemorySink()
    with tracing(sink):
        result = EccentricitySolver(BFSOracle(ba2k)).run_budgeted(40)
    events = deterministic_view(sink.events)
    sweeps = [e["num_sources"] for e in events if e["name"] == "msbfs.run"]
    # BA-2k's territory fits 64 lanes in one block, so after the
    # reference one batch holds the 39 probes the budget has left.
    assert sweeps == [39]
    assert result.num_bfs == 40 and result.counter.lanes_discarded == 0
    (run_span,) = [e for e in events if e["name"] == "solver.run"]
    assert (run_span["budget"], run_span["exact"]) == (40, False)


def test_weighted_kifecc_equals_steps_stopped() -> None:
    weighted = _weighted(random_connected_graph(300, 150, seed=3))
    _assert_budgeted_equals_steps(lambda: weighted_solver(weighted))
    for k in (0, 8, 16, 10**6):
        result = weighted_solver(weighted).run_budgeted(k + 1)
        want = _stepped_to(weighted_solver(weighted), k + 1)
        assert result.lower.tolist() == want["lower"]
        assert result.eccentricities.tolist() == want["lower"]
        assert (result.num_bfs, result.exact) == (want["num_bfs"], want["exact"])


class CorruptingOracle(ForwardingOracle):
    """Hands back one probe's eccentricity or distances corrupted.

    ``sweep_batch`` corrupts the source the same way whether it runs
    alone or as a lane, so ``steps()`` and ``run()`` see identical
    inputs.
    """

    def __init__(self, oracle: BFSOracle, source: int, field: str) -> None:
        super().__init__(oracle)
        self._source = source
        self._field = field

    def _corrupt(self, ecc: int, dist: np.ndarray) -> Tuple[int, np.ndarray]:
        if self._field == "ecc":
            return ecc + 10**6, dist
        return ecc, dist + 10**6

    def sweep_batch(
        self, sources: List[int], targets: Any, counter: Any = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        eccs, cols = self._oracle.sweep_batch(sources, targets, counter=counter)
        if self._source in sources:
            lane = list(sources).index(self._source)
            eccs[lane], cols[lane] = self._corrupt(int(eccs[lane]), cols[lane])
        return eccs, cols


@pytest.mark.parametrize("field", ["ecc", "dist"])
@pytest.mark.parametrize("probe", [0, 8, 30])
def test_corrupted_lane_row_raises_like_steps(ba2k: Graph, field: str, probe: int) -> None:
    """A lane row outside the current bounds fails ``run()`` and
    ``run_budgeted()`` as it fails ``steps()`` when a single probe
    returns it: the first and a middle row of a lane batch."""
    clean = TraversalCounter()
    EccentricitySolver(BFSOracle(ba2k), counter=clean).run()
    # History: the reference, then the sweep probes in order; BA-2k's
    # first lane batch holds sweep probes 0-63, so probes 8 and 30 are
    # rows inside it.
    source = int(clean.history[1 + probe].split(":")[1])
    with pytest.raises(InvalidParameterError):
        for _ in EccentricitySolver(
            CorruptingOracle(BFSOracle(ba2k), source, field)
        ).steps():
            pass
    with pytest.raises(InvalidParameterError):
        EccentricitySolver(CorruptingOracle(BFSOracle(ba2k), source, field)).run()
    # A budget that ends on the corrupted probe still applies its row.
    for budget in (2 + probe, 10**6):
        with pytest.raises(InvalidParameterError):
            EccentricitySolver(
                CorruptingOracle(BFSOracle(ba2k), source, field)
            ).run_budgeted(budget)


class BatchSpy(ForwardingOracle):
    """Records ``(probes asked for, traversals so far)`` per sweep."""

    def __init__(self, oracle: Any) -> None:
        super().__init__(oracle)
        self.calls: List[Tuple[int, int]] = []

    def sweep_batch(
        self, sources: List[int], targets: Any, counter: Any = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        self.calls.append((len(sources), counter.bfs_runs))
        return self._oracle.sweep_batch(sources, targets, counter=counter)


@pytest.mark.parametrize("budget", [2, 9, 40, 65, 200])
def test_lane_batches_never_exceed_the_budget_left(
    ba2k: Graph, budget: int
) -> None:
    spy = BatchSpy(BFSOracle(ba2k))
    result = EccentricitySolver(spy).run_budgeted(budget)
    assert spy.calls
    for width, runs in spy.calls:
        assert 1 <= width <= min(budget - runs, BFSOracle.sweep_lanes)
    assert result.num_bfs <= budget


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=160),
    extra=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    refs=st.sampled_from([1, 3]),
    directed=st.booleans(),
    cells=st.sampled_from([1, 40, 200, 1 << 18]),
    k=st.integers(min_value=0, max_value=90),
)
def test_block_width_run_and_budget_equal_steps(
    n: int,
    extra: int,
    seed: int,
    refs: int,
    directed: bool,
    cells: int,
    k: int,
) -> None:
    """``run()`` equals ``steps()``, and ``run_budgeted(k + 1)`` equals
    ``steps()`` stopped at ``k + 1`` traversals, whichever side of the
    block's cell cap a territory is on: with the cap shrunk to 1 or 40
    cells, these graphs' territories lie above it and the doubling
    floor plans the widths; at 200 cells only territories of at most
    25 open members are widened; at the full cap the first batch is as
    wide as the FFO, the budget and one lane word allow."""
    if directed:
        graph: Any = random_strongly_connected(n, extra + n, seed)
        make_oracle: Any = DirectedBFSOracle
    else:
        graph = random_connected_graph(n, extra, seed)
        make_oracle = BFSOracle
    with mock.patch.object(msengine, "_BLOCK_CELLS", cells):
        _compare(make_oracle, graph, refs, False)
        _assert_budgeted_equals_steps(
            lambda: EccentricitySolver(
                make_oracle(graph), num_references=refs
            ),
            budgets=(0, k + 1, 10**6),
        )


class TestBlockBound:
    """The lane block's cell cap keeps a run's scratch near the
    doubling rule's, not ``64 x |unresolved|`` cells wide."""

    def test_web_standin_peak_under_8_mib(self) -> None:
        graph = load_dataset("UKUN", scale=0.75)
        assert graph.num_vertices > msengine._BLOCK_CELLS // 64
        peak = traced_peak_bytes(lambda: compute_eccentricities(graph))
        # 64 lanes from the first probe would record (64, |U|) blocks
        # with |U| near n: about 21 MiB here, against 4-6 MiB capped.
        assert peak <= 8 << 20, peak
