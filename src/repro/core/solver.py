"""The metric-generic Algorithm-2 solver core.

Section 3.1's observation — formalised by Dragan et al.'s certificate
view — is that *every* bound-based eccentricity algorithm is the same
loop: pick references, order probes farthest-first, tighten Lemma
3.1/3.3 bounds until every gap closes.  The repository used to
implement that loop three times (unweighted BFS, weighted Dijkstra,
directed forward/backward BFS); :class:`EccentricitySolver` implements
it once, parameterised over a :class:`repro.core.oracles.DistanceOracle`:

1. select ``r`` reference nodes ``Z`` (Algorithm 2, line 1);
2. one *source probe* per ``z`` in ``Z`` yields ``ecc(z)``, the forward
   distances (hence the FFO ``L^z``) and the reverse distances
   (lines 2-4; symmetric metrics get both vectors from one traversal);
3. every other vertex joins the *territory* ``V^z`` of its closest
   reference and has its bounds seeded by Lemma 3.1 (lines 5-9);
4. for each ``z``, *sweep probes* walk ``L^z`` front-to-back; each
   probe yields exact reverse distances, so Lemma 3.1 raises lower
   bounds and Lemma 3.3 caps upper bounds for the territory, until
   every territory member's bounds meet (lines 10-18).  Every step
   applies one block of FFO rows: a replayed row, or the rows of one
   ``oracle.sweep_batch`` call — one probe, or, in :meth:`run` and
   :meth:`run_budgeted`, up to ``oracle.sweep_lanes`` of a territory's
   next probes swept together as MS-BFS lanes (backward lanes for
   the directed oracle): as many as fit a block of 2^18 distance
   cells over the territory's unresolved members when that is at
   least 8, and never fewer than the doubling rule of
   :func:`repro.graph.msengine.plan_sweep_width`.  Lemma 3.1 lowers
   are a running max and Lemma 3.3 uppers a running min down a block's rows (see
   :meth:`EccentricitySolver._sweep_territory`), so results, traversal
   counts, snapshots and probe spans equal one traversal per probe.

Because the loop is shared, every capability built on it — the anytime
:meth:`EccentricitySolver.steps` protocol, kIFECC-style budgeting
(:meth:`run_budgeted`, :meth:`run`'s driver with lane batches capped by
the budget left) and extremes early-stop
(:func:`repro.core.extremes.oracle_radius_and_diameter`) — works
identically for unweighted, weighted, and directed inputs.

The unweighted instantiation (:class:`repro.core.ifecc.IFECC`) is
bit-identical to the historical implementation: same traversal
sequence, same counters, same snapshots, same results (for ``run()``
and ``run_budgeted()``, the work counters also include the lanes they
discarded).  Weighted and directed instantiations are value-identical
to their pre-unification ancestors within the oracle's documented
tolerance.

Space stays ``O(m + n)`` (Theorem 4.5): the graph, the bound arrays,
the ``r`` reference distance vectors, at most one lane batch of
``64 * |unresolved|`` distance cells — a batch records only the
territory's unresolved members, and is planned to fit ``2^18`` cells
unless the doubling floor asks for more — and a constant number
of ``(k, |unresolved|)`` scan matrices while a batch of ``k`` rows is
applied.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro import sanitize
from repro.core.bounds import BoundState
from repro.core.ffo import FarthestFirstOrder
from repro.core.oracles import DistanceOracle, _reference_probe
from repro.core.result import EccentricityResult, ProgressSnapshot
from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError
from repro.graph.msengine import plan_sweep_width
from repro.obs.trace import Stopwatch, Tracer, get_tracer

__all__ = ["EccentricitySolver", "Territory"]


@dataclass
class Territory:
    """A reference node's working state during the main loop.

    ``dist_into`` holds ``dist(v, z)`` for every ``v`` — the vector the
    Lemma 3.3 tail cap reads.  For symmetric metrics it is the FFO's
    own distance vector; the directed oracle supplies the backward-BFS
    vector.
    """

    reference: int
    ffo: FarthestFirstOrder
    members: np.ndarray  # vertex ids owned by this reference
    dist_into: np.ndarray  # dist(., reference)


class EccentricitySolver:
    """Generic Algorithm-2 engine over a pluggable distance oracle.

    Parameters
    ----------
    oracle:
        The metric back-end (see :mod:`repro.core.oracles`).
    num_references:
        ``r``, the reference-node count.  The paper's headline
        configuration is ``r = 1`` (Section 4.3).
    strategy:
        Reference-selection rule, resolved by the oracle (``"degree"``
        is every metric's default; the unweighted oracle also offers
        ``"random"`` and ``"center"``).
    seed:
        Seed for stochastic strategies; ignored by ``"degree"``.
    counter:
        Optional shared :class:`repro.counters.TraversalCounter`.

    Spans and events go to the process-wide active tracer
    (:func:`repro.obs.trace.get_tracer`), read when a run starts, so
    ``with tracing(sink):`` around a run captures them.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        num_references: int = 1,
        strategy: str = "degree",
        seed: int = 0,
        counter: Optional[TraversalCounter] = None,
    ) -> None:
        if num_references < 1:
            raise InvalidParameterError("num_references must be >= 1")
        if oracle.num_vertices == 0:
            raise InvalidParameterError("graph must have at least one vertex")
        self.oracle = oracle
        self.num_references = min(num_references, oracle.num_vertices)
        self.strategy = strategy
        self.seed = seed
        self.counter = counter if counter is not None else TraversalCounter()
        self.bounds = BoundState(
            oracle.num_vertices,
            dtype=oracle.dtype,
            tolerance=oracle.tolerance,
        )
        self.references = oracle.select_references(
            strategy, self.num_references, seed
        )
        self._territories: List[Territory] = []
        # reference id -> dist(., reference), replayed when a reference
        # sits in another reference's FFO.
        self._known: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Phase 1: reference probes + territory assignment (Alg. 2, 1-9)
    # ------------------------------------------------------------------
    def _initialise(self) -> Iterator[ProgressSnapshot]:
        oracle = self.oracle
        tracer = get_tracer()
        ffos: List[FarthestFirstOrder] = []
        reverse: List[np.ndarray] = []
        for z in self.references:
            z = int(z)
            span = tracer.span(
                "solver.probe",
                probe="reference",
                source=z,
                territory=z,
                ffo_rank=None,
                metric=oracle.metric_name,
                oracle=oracle.trace_kind,
            )
            ffo, dist_into = _reference_probe(oracle, z, self.counter)
            ffos.append(ffo)
            reverse.append(dist_into)
            self.bounds.set_exact(z, ffo.eccentricity)
            # Retaining relies on source_probe's caller-owned contract;
            # under REPRO_SANITIZE=1 a pooled loan slipping in raises
            # here, at the retention site, not at some later stale read.
            self._known[z] = sanitize.assert_owned(dist_into)
            snap = self._snapshot(z)
            if tracer.enabled:
                gap = self.bounds.capped_gap_mass(oracle.gap_cap())
                self._finish_probe_span(
                    tracer, span, ffo.eccentricity, snap, gap
                )
            yield snap

        # Closest reference per vertex (by forward distance); ties go to
        # the earlier entry of Z (the higher-degree reference),
        # matching Example 4.6.
        dist_matrix = np.stack([f.distances for f in ffos])  # (r, n)
        owner_idx = np.argmin(dist_matrix, axis=0)

        for idx, ffo in enumerate(ffos):
            z = int(self.references[idx])
            members = np.flatnonzero(owner_idx == idx)
            members = members[~np.isin(members, self.references)]
            dist_into_z = reverse[idx]
            # Lemma 3.1 seed from the territory's own reference
            # (lines 8-9).
            self.bounds.apply_lemma31(
                dist_into_z, ffo.distances, ffo.eccentricity, subset=members
            )
            self._territories.append(
                Territory(
                    reference=z,
                    ffo=ffo,
                    members=members.astype(np.int64),
                    dist_into=dist_into_z,
                )
            )
            tracer.event(
                "solver.territory", reference=z, size=int(len(members))
            )

    # ------------------------------------------------------------------
    # Phase 2: FFO-ordered probe sweep (Algorithm 2, 10-18)
    # ------------------------------------------------------------------
    def steps(self) -> Iterator[ProgressSnapshot]:
        """Run the algorithm, yielding a snapshot after every traversal.

        Exhausting the iterator completes the exact computation; stopping
        early leaves valid (possibly unresolved) bounds in
        :attr:`bounds` — that is the anytime mode kIFECC builds on, now
        available for every metric.  Every sweep probe is its own
        traversal: the contract is per traversal, so no lanes are swept
        ahead.
        """
        yield from self._steps(lambda consumed, unresolved: 1)

    def _steps(
        self, plan: Callable[[int, int], int]
    ) -> Iterator[ProgressSnapshot]:
        yield from self._initialise()
        for territory in self._territories:
            yield from self._sweep_territory(territory, plan)

    def _sweep_territory(
        self, territory: Territory, plan: Callable[[int, int], int]
    ) -> Iterator[ProgressSnapshot]:
        """Probe ``L^z`` front to back until the territory resolves.

        Each step applies one block of FFO rows (:meth:`_sweep_block`):
        the replayed row of a retained source, or the next
        ``plan(consumed, len(unresolved))`` fresh probes, where
        ``consumed`` counts the territory's probes so far and
        ``unresolved`` holds its members still open.  One probe is one
        traversal; more are swept together as the lanes of one
        ``sweep_batch`` call.
        Lemmas 3.1 and 3.3 only need each probe's exact distance row,
        the probes of the FFO prefix are known before they run, and both
        updates are monotone, so a block's running max/min yields the
        bounds, counts, snapshots and spans of one traversal per probe;
        only the rows past the stopping rank go unused.  A probe's row
        is read only on the still-unresolved members (Lemma 3.3 reads
        the reference's vector), so a batch records just the members
        unresolved when it starts.
        """
        ffo = territory.ffo
        unresolved = self.bounds.unresolved_subset(territory.members)
        consumed = 0
        rank = 0
        while len(unresolved) and rank < len(ffo.order):
            source = int(ffo.order[rank])
            if source == territory.reference:
                rank += 1
                continue
            width = (
                0
                if source in self._known
                else plan(consumed, len(unresolved))
            )
            unresolved, rank = yield from self._sweep_block(
                territory, rank, width, unresolved
            )
            # Fewer than `width` probes only when L^z ran out.
            consumed += width
        self.counter.discard_lanes()

    def _sweep_block(
        self,
        territory: Territory,
        rank: int,
        width: int,
        unresolved: np.ndarray,
    ) -> Generator[ProgressSnapshot, None, Tuple[np.ndarray, int]]:
        """Apply the FFO rows from ``rank`` on as one block.

        With ``width`` 0 the block is the replayed row at ``rank``.
        Otherwise its rows are the FFO ranks from ``rank`` on, but the
        reference, through the ``width``-th fresh probe: the probes'
        rows, from one ``sweep_batch`` call, and the retained rows of
        the other references in between, which it replays.  Replaying a
        retained row keeps Lemma 3.3 sound: it makes the source a probed
        node of this territory, exactly as a fresh traversal would.  The
        block's columns are the territory's ``unresolved`` members;
        :meth:`BoundState.apply_sweep_block` applies it and stops at the
        row that resolves the last of them.  Snapshots, probe spans,
        replay events and consumed lanes follow for each applied row,
        in FFO order.  Returns the members still unresolved and the rank
        after the block.
        """
        tracer = get_tracer()
        traced = tracer.enabled
        oracle = self.oracle
        counter = self.counter
        ffo = territory.ffo
        ranks: List[int] = []
        sources: List[int] = []
        fresh: List[bool] = []
        probes: List[int] = []
        for at in range(rank, len(ffo.order)):
            source = int(ffo.order[at])
            if source == territory.reference:
                continue
            ranks.append(at)
            sources.append(source)
            fresh.append(source not in self._known)
            if fresh[-1]:
                probes.append(source)
            if len(probes) == width:
                break
        lanes = [row for row, is_fresh in enumerate(fresh) if is_fresh]
        # The traversal runs inside the first probe's span.
        span = (
            self._sweep_span(tracer, territory, probes[0], rank)
            if traced and probes
            else None
        )
        runs = counter.bfs_runs
        # The directed oracle's backward probes yield no eccentricity,
        # so their rows pin nothing.
        eccs: Any = ()
        if probes:
            eccs, cols = oracle.sweep_batch(
                probes, unresolved, counter=counter
            )
        dtype = self.bounds.dtype
        if len(lanes) == len(sources) and cols.dtype == dtype:
            block = cols
        else:
            block = np.empty((len(sources), len(unresolved)), dtype)
            if probes:
                block[lanes] = cols
            for row, source in enumerate(sources):
                if not fresh[row]:
                    block[row] = self._known[source][unresolved]
        scan = self.bounds.apply_sweep_block(
            unresolved,
            block,
            territory.dist_into[unresolved],
            [ffo.distance_of_rank(at + 1) for at in ranks],
            lanes[: len(eccs)],
            probes[: len(eccs)],
            eccs,
            oracle.gap_cap() if traced else None,
        )
        used = bisect.bisect_left(lanes, scan.used)
        if len(probes) > 1:
            counter.consume_lanes(used)
        lane = 0
        for row in range(scan.used):
            if not fresh[row]:
                tracer.event(
                    "solver.replay",
                    source=sources[row],
                    territory=territory.reference,
                    ffo_rank=ranks[row],
                )
                continue
            lane += 1
            snap = ProgressSnapshot(
                bfs_runs=runs + lane,
                source=sources[row],
                resolved=int(scan.resolved[row]),
                num_vertices=oracle.num_vertices,
            )
            if traced:
                if lane > 1:
                    span = self._sweep_span(
                        tracer, territory, sources[row], ranks[row]
                    )
                self._finish_probe_span(
                    tracer,
                    span,
                    eccs[lane - 1] if len(eccs) else None,
                    snap,
                    float(scan.gap_mass[row]),
                )
            yield snap
        return scan.unresolved, ranks[-1] + 1

    def _sweep_span(
        self, tracer: Tracer, territory: Territory, source: int, rank: int
    ) -> Any:
        """Open the ``solver.probe`` span of the sweep probe at ``rank``."""
        return tracer.span(
            "solver.probe",
            probe="sweep",
            source=source,
            territory=territory.reference,
            ffo_rank=rank,
            metric=self.oracle.metric_name,
            oracle=self.oracle.trace_kind,
        )

    def _finish_probe_span(
        self,
        tracer: Tracer,
        span: Any,
        ecc_value: Optional[float],
        snap: ProgressSnapshot,
        gap_mass: float,
    ) -> None:
        """Attach post-traversal facts to a probe span and close it
        (enabled tracers only).

        The gauges mirror the event stream so metric consumers see
        convergence without replaying events.  ``gap_mass`` is the
        remaining bound-gap mass (:meth:`BoundState.capped_gap_mass`),
        the certificate-size signal the live progress monitor plots.
        """
        remaining = snap.num_vertices - snap.resolved
        if ecc_value is None:
            ecc_out: Optional[float] = None
        else:
            ecc_out = (
                int(ecc_value)
                if float(ecc_value).is_integer()
                else float(ecc_value)
            )
        gap_out = int(gap_mass) if gap_mass.is_integer() else gap_mass
        span.set(
            ecc=ecc_out,
            traversals=snap.bfs_runs,
            resolved=snap.resolved,
            remaining=remaining,
            gap=gap_out,
        ).finish()
        tracer.metrics.gauge("solver.unresolved").set(remaining)
        tracer.metrics.gauge("solver.gap_mass").set(gap_mass)

    def _snapshot(self, source: int) -> ProgressSnapshot:
        return ProgressSnapshot(
            bfs_runs=self.counter.bfs_runs,
            source=source,
            resolved=self.bounds.num_resolved(),
            num_vertices=self.oracle.num_vertices,
        )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _algorithm_tag(self) -> str:
        return f"{self.oracle.metric_name}-{self.num_references}"

    def run(self, algorithm: Optional[str] = None) -> EccentricityResult:
        """Run to completion and return the exact ED (Algorithm 2).

        Sweep probes may run as lane batches of at most the oracle's
        ``sweep_lanes``, each applied as one block (see
        :meth:`_sweep_territory`); the result, the counter's runs and
        history, and the probe spans equal those of exhausting
        :meth:`steps`.  The counter's work totals also
        include the unused lanes, which ``lanes_discarded`` counts.
        """
        return self._drive(None, algorithm or self._algorithm_tag())

    def run_budgeted(self, max_bfs: int) -> EccentricityResult:
        """Stop after ``max_bfs`` total traversals; lower bounds become
        the estimate (the anytime by-product of Section 1,
        contribution 5).

        It runs :meth:`run`'s loop, whose lane batches never hold more
        probes than the budget has left, so it stops where :meth:`steps`
        stopped at the first snapshot of ``max_bfs`` traversals would,
        with the same bounds, traversal count and history.
        """
        if max_bfs < 0:
            raise InvalidParameterError("max_bfs must be non-negative")
        return self._drive(
            max_bfs, f"{self._algorithm_tag()}(budget={max_bfs})"
        )

    def _drive(
        self, max_bfs: Optional[int], algorithm: str
    ) -> EccentricityResult:
        """The one driver: :meth:`run` (no budget) or :meth:`run_budgeted`."""
        counter = self.counter
        limit = float("inf") if max_bfs is None else max_bfs

        lanes = self.oracle.sweep_lanes

        def plan(consumed: int, unresolved: int) -> int:
            left = limit - counter.bfs_runs
            wanted = plan_sweep_width(consumed, unresolved)
            return int(max(1, min(wanted, lanes, left)))

        budget = {} if max_bfs is None else {"budget": max_bfs}
        tracer = get_tracer()
        watch = Stopwatch()
        with tracer.span(
            "solver.run",
            algorithm=algorithm,
            metric=self.oracle.metric_name,
            **budget,
        ) as run_span:
            for snapshot in self._steps(plan):
                if snapshot.bfs_runs >= limit:
                    break
            run_span.set(traversals=counter.bfs_runs)
            if counter.lanes_discarded:
                run_span.set(lanes_discarded=counter.lanes_discarded)
            if max_bfs is not None:
                run_span.set(exact=self.bounds.all_resolved())
        elapsed = watch.elapsed()
        if tracer.enabled:
            tracer.metrics.ingest_traversal_counter(counter)
        return EccentricityResult.from_bounds(
            self.bounds,
            algorithm,
            counter,
            elapsed,
            reference_nodes=self.references,
            require_exact=max_bfs is None,
        )
