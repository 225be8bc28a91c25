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
   every territory member's bounds meet (lines 10-18).  :meth:`run`
   may sweep a territory's later probes together as MS-BFS lanes and
   apply each lane batch as one block: Lemma 3.1 lowers are a running
   max and Lemma 3.3 uppers a running min down the batch's rows (see
   :meth:`EccentricitySolver._sweep_territory`), so results, traversal
   counts, snapshots and probe spans equal one traversal per probe.

Because the loop is shared, every capability built on it — the anytime
:meth:`EccentricitySolver.steps` protocol, kIFECC-style budgeting
(:meth:`run_budgeted`), extremes early-stop
(:func:`repro.core.extremes.oracle_radius_and_diameter`) and the
convergence instrumentation of :mod:`repro.analysis.convergence` —
works identically for unweighted, weighted, and directed inputs.

The unweighted instantiation (:class:`repro.core.ifecc.IFECC`) is
bit-identical to the historical implementation: same traversal
sequence, same counters, same snapshots, same results (for ``run()``,
the work counters also include the lanes it discarded).  Weighted and
directed instantiations are value-identical to their pre-unification
ancestors within the oracle's documented tolerance.

Space stays ``O(m + n)`` (Theorem 4.5): the graph, the bound arrays,
the ``r`` reference distance vectors, at most one lane batch of
``64 * |unresolved|`` distance cells — a batch records only the
territory's unresolved members (whole rows when ``memoize_distances``
is on, since memoised rows must be complete) — and a constant number
of ``(k, |unresolved|)`` scan matrices while a batch of ``k`` rows is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

from repro import sanitize
from repro.core.bounds import BoundState
from repro.core.ffo import FarthestFirstOrder, farthest_first_order
from repro.core.oracles import DistanceOracle
from repro.core.result import EccentricityResult, ProgressSnapshot
from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError
from repro.graph.msengine import plan_sweep_width
from repro.obs.trace import Stopwatch, Tracer, get_tracer
from repro.sentinels import unreached_mask

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
    memoize_distances:
        Cache each probe's distance vector and replay it when a vertex
        sits at the FFO front of several references (the Section 4.3
        space/time trade-off; reference vectors are always retained).
    counter:
        Optional shared :class:`repro.counters.TraversalCounter`.
    tracer:
        Optional explicit :class:`repro.obs.trace.Tracer`; by default the
        process-wide active tracer (:func:`repro.obs.trace.get_tracer`)
        is consulted at :meth:`steps` time, so ``with tracing(sink):``
        around a run captures its spans without touching this signature.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        num_references: int = 1,
        strategy: str = "degree",
        seed: int = 0,
        memoize_distances: bool = False,
        counter: Optional[TraversalCounter] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if num_references < 1:
            raise InvalidParameterError("num_references must be >= 1")
        if oracle.num_vertices == 0:
            raise InvalidParameterError("graph must have at least one vertex")
        self.oracle = oracle
        self.num_references = min(num_references, oracle.num_vertices)
        self.strategy = strategy
        self.seed = seed
        self.memoize_distances = memoize_distances
        self.counter = counter if counter is not None else TraversalCounter()
        self._tracer = tracer
        # Scratch for the traced-probe gap-mass reduction; see _gap_mass.
        self._gap_buf: Optional[np.ndarray] = None
        self.bounds = BoundState(
            oracle.num_vertices,
            dtype=oracle.dtype,
            tolerance=oracle.tolerance,
        )
        self.references = oracle.select_references(
            strategy, self.num_references, seed
        )
        self._territories: List[Territory] = []
        # source id -> (ecc-or-None, dist(., source)) for probes whose
        # result is retained: always the references, plus every probe
        # when memoize_distances is on.
        self._known: Dict[int, Tuple[Optional[float], np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Phase 1: reference probes + territory assignment (Alg. 2, 1-9)
    # ------------------------------------------------------------------
    def _initialise(self) -> Iterator[ProgressSnapshot]:
        oracle = self.oracle
        tracer = self._active_tracer()
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
                oracle=getattr(oracle, "trace_kind", oracle.metric_name),
            )
            ecc_z, dist_from, dist_into = oracle.source_probe(
                z, counter=self.counter
            )
            if bool(np.any(unreached_mask(dist_from))) or (
                dist_into is not dist_from
                and bool(np.any(unreached_mask(dist_into)))
            ):
                raise oracle.disconnected_error()
            ffo = farthest_first_order(dist_from, z)
            ffos.append(ffo)
            reverse.append(dist_into)
            self.bounds.set_exact(z, ffo.eccentricity)
            # Memoising relies on source_probe's caller-owned contract;
            # under REPRO_SANITIZE=1 a pooled loan slipping in raises
            # here, at the retention site, not at some later stale read.
            self._known[z] = (
                ffo.eccentricity,
                sanitize.assert_owned(dist_into),
            )
            snap = self._snapshot(z)
            if tracer.enabled:
                self._finish_probe_span(
                    tracer, span, ffo.eccentricity, snap, self._gap_mass()
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
            # (lines 8-9); asymmetric metrics split the two directions.
            if dist_into_z is ffo.distances:
                self.bounds.apply_lemma31_subset(
                    members, ffo.distances[members], ffo.eccentricity
                )
            else:
                self.bounds.apply_lemma31_subset(
                    members,
                    dist_into_z[members],
                    ffo.eccentricity,
                    dist_from_subset=ffo.distances[members],
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
        available for every metric.
        """
        yield from self._steps(batched=False)

    def _steps(self, batched: bool) -> Iterator[ProgressSnapshot]:
        yield from self._initialise()
        for territory in self._territories:
            yield from self._sweep_territory(territory, batched)

    def _sweep_territory(
        self, territory: Territory, batched: bool
    ) -> Iterator[ProgressSnapshot]:
        """Probe ``L^z`` front to back until the territory resolves.

        Without ``batched`` every probe is one traversal, applied on its
        own.  With ``batched`` set and an oracle that offers
        ``sweep_batch``, the next fresh probes are swept together as
        MS-BFS lanes (:func:`repro.graph.msengine.plan_sweep_width`
        picks how many) and applied as one block
        (:meth:`_sweep_block`).  Lemmas 3.1 and 3.3 only need each
        probe's exact distance row, the probes of the FFO prefix are
        known before they run, and both updates are monotone, so the
        block's running max/min yields the bounds, counts, snapshots
        and spans of one traversal per probe; only the rows past the
        stopping rank go unused.  A probe's row is read only on the
        still-unresolved members (Lemma 3.3 reads the reference's
        vector), so a batch records just the members unresolved when it
        starts.
        """
        bounds = self.bounds
        tracer = self._active_tracer()
        ffo = territory.ffo
        dist_into_z = territory.dist_into
        unresolved = bounds.unresolved_subset(territory.members)
        sweep_batch = (
            getattr(self.oracle, "sweep_batch", None) if batched else None
        )
        consumed = 0
        rank = 0
        while len(unresolved) and rank < len(ffo.order):
            source = int(ffo.order[rank])
            if source == territory.reference:
                rank += 1
                continue
            width = (
                plan_sweep_width(consumed)
                if sweep_batch is not None and source not in self._known
                else 0
            )
            if width:
                probes = self._next_probes(territory, rank, width)
                unresolved, rank = yield from self._sweep_block(
                    territory, rank, probes, unresolved, sweep_batch
                )
                consumed += len(probes)
                continue
            tail_radius = ffo.distance_of_rank(rank + 1)
            if source in self._known:
                # Replay the retained distance vector instead of
                # re-running the traversal.  Lemma 3.3 stays sound
                # because the replayed Lemma 3.1 update makes `source` a
                # probed node of this territory, exactly as a fresh
                # traversal would.
                ecc_s, dist_s = self._known[source]
                fresh_probe = False
                span = None
                tracer.event(
                    "solver.replay",
                    source=source,
                    territory=territory.reference,
                    ffo_rank=rank,
                )
            else:
                span = (
                    self._sweep_span(tracer, territory, source, rank)
                    if tracer.enabled
                    else None
                )
                # The vector may alias the oracle's pooled workspace; it
                # is consumed before the next traversal and only the
                # memoised copy outlives this iteration.
                ecc_s, dist_s = self.oracle.sweep_probe(
                    source, counter=self.counter
                )
                consumed += 1
                if ecc_s is not None:
                    # The probe determined ecc(source) exactly, even if
                    # `source` belongs to another territory.  (The
                    # directed oracle's backward BFS yields no forward
                    # eccentricity; its probes skip this step.)
                    bounds.set_exact(source, ecc_s)
                if self.memoize_distances:
                    self._known[source] = (
                        ecc_s,
                        sanitize.assert_owned(dist_s.copy()),
                    )
                fresh_probe = True
            # Lemma 3.1 (lower) for the territory...
            bounds.raise_lower_subset(unresolved, dist_s[unresolved])
            # ... and Lemma 3.3's shrinking tail cap (upper).
            bounds.apply_lemma33_tail(
                dist_into_z, tail_radius, subset=unresolved
            )
            if fresh_probe:
                snap = self._snapshot(source)
                if span is not None:
                    self._finish_probe_span(
                        tracer, span, ecc_s, snap, self._gap_mass()
                    )
                yield snap
            unresolved = bounds.unresolved_subset(unresolved)
            rank += 1
        self.counter.discard_lanes()

    def _sweep_block(
        self,
        territory: Territory,
        rank: int,
        probes: List[int],
        unresolved: np.ndarray,
        sweep_batch: Any,
    ) -> Generator[ProgressSnapshot, None, Tuple[np.ndarray, int]]:
        """Sweep ``probes`` as lanes and apply them as one block.

        The block's rows are the FFO ranks from ``rank`` through the last
        probe's, but the reference: the lanes' rows, and the retained
        rows of the sources in between, which it replays.  Its columns
        are the territory's ``unresolved`` members;
        :meth:`BoundState.apply_sweep_block` applies it and stops at the
        row that resolves the last of them.  Snapshots, probe spans,
        replay events, memoised rows and consumed lanes follow for each
        applied row, in FFO order.  Returns the members still
        unresolved and the rank after the block.
        """
        tracer = self._active_tracer()
        oracle = self.oracle
        ffo = territory.ffo
        ranks: List[int] = []
        sources: List[int] = []
        for at in range(rank, len(ffo.order)):
            source = int(ffo.order[at])
            if source != territory.reference:
                ranks.append(at)
                sources.append(source)
                if source == probes[-1]:
                    break
        fresh = np.array([s not in self._known for s in sources])
        lanes = np.flatnonzero(fresh)
        span = self._sweep_span(tracer, territory, probes[0], rank)
        # The sweep runs inside the first probe's span; memoised rows
        # must be whole.
        eccs, cols = sweep_batch(
            probes,
            np.arange(oracle.num_vertices)
            if self.memoize_distances
            else unresolved,
            counter=self.counter,
        )
        if len(lanes) == len(sources) and not self.memoize_distances:
            block = cols
        else:
            block = np.empty((len(sources), len(unresolved)), cols.dtype)
            block[lanes] = (
                cols[:, unresolved] if self.memoize_distances else cols
            )
            for row in np.flatnonzero(~fresh).tolist():
                block[row] = self._known[sources[row]][1][unresolved]
        tails = [ffo.distance_of_rank(at + 1) for at in ranks]
        scan = self.bounds.apply_sweep_block(
            unresolved,
            block,
            territory.dist_into[unresolved],
            np.asarray(tails),
            lanes,
            np.asarray(probes),
            eccs,
            oracle.gap_cap(),
        )
        used = int(np.searchsorted(lanes, scan.used))
        runs = self.counter.bfs_runs
        self.counter.consume_lanes(used)
        if self.memoize_distances:
            for lane in range(used):
                self._known[probes[lane]] = (
                    int(eccs[lane]),
                    sanitize.assert_owned(cols[lane].copy()),
                )
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
            if lane:
                span = self._sweep_span(
                    tracer, territory, sources[row], ranks[row]
                )
            lane += 1
            snap = ProgressSnapshot(
                bfs_runs=runs + lane,
                source=sources[row],
                resolved=int(scan.resolved[row]),
                num_vertices=oracle.num_vertices,
            )
            self._finish_probe_span(
                tracer, span, eccs[lane - 1], snap, float(scan.gap_mass[row])
            )
            yield snap
        return scan.unresolved, ranks[-1] + 1

    def _next_probes(
        self, territory: Territory, rank: int, width: int
    ) -> List[int]:
        """Up to ``width`` sources the sweep would probe next, from
        ``rank`` on: it skips only the reference and the sources whose
        rows it replays.
        """
        probes: List[int] = []
        for source in territory.ffo.order[rank:]:
            source = int(source)
            if source != territory.reference and source not in self._known:
                probes.append(source)
                if len(probes) == width:
                    break
        return probes

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
            oracle=getattr(self.oracle, "trace_kind", self.oracle.metric_name),
        )

    def _active_tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def _finish_probe_span(
        self,
        tracer: Tracer,
        span: Any,
        ecc_value: Optional[float],
        snap: ProgressSnapshot,
        gap_mass: float,
    ) -> None:
        """Attach post-traversal facts to a probe span and close it.

        The gauges mirror the event stream so metric consumers see
        convergence without replaying events.  ``gap_mass`` is the
        remaining bound-gap mass (:meth:`_gap_mass`), the
        certificate-size signal the live progress monitor plots.
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
        if tracer.enabled:
            tracer.metrics.gauge("solver.unresolved").set(remaining)
            tracer.metrics.gauge("solver.gap_mass").set(gap_mass)

    def _gap_mass(self) -> float:
        """Per-vertex ``upper - lower`` capped at the oracle's finite
        eccentricity bound (untouched vertices carry an infinity
        sentinel), summed.
        """
        n = self.oracle.num_vertices
        buf = self._gap_buf
        if buf is None or len(buf) != n:
            buf = self._gap_buf = np.empty(n, np.float64)
        # In-place fused equivalent of
        # ``np.minimum(self.bounds.gap(), self.oracle.gap_cap()).sum()``
        # — this runs once per traced traversal, and the temporaries the
        # spelled-out form allocates are the single largest slice of the
        # capture overhead budget enforced by bench_obs_overhead.
        np.subtract(self.bounds.upper, self.bounds.lower, out=buf)
        np.minimum(buf, self.oracle.gap_cap(), out=buf)
        return float(buf.sum())

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

        Sweep probes may run as MS-BFS lane batches, each applied as
        one block (see :meth:`_sweep_territory`); the result, the
        counter's runs and history, and the probe spans equal those of
        exhausting :meth:`steps`.  The counter's work totals also
        include the unused lanes, which ``lanes_discarded`` counts.
        """
        tracer = self._active_tracer()
        watch = Stopwatch()
        with tracer.span(
            "solver.run",
            algorithm=(
                algorithm if algorithm is not None else self._algorithm_tag()
            ),
            metric=self.oracle.metric_name,
        ) as run_span:
            for _ in self._steps(batched=True):
                pass
            run_span.set(traversals=self.counter.bfs_runs)
            if self.counter.lanes_discarded:
                run_span.set(lanes_discarded=self.counter.lanes_discarded)
        elapsed = watch.elapsed()
        if tracer.enabled:
            tracer.metrics.ingest_traversal_counter(self.counter)
        return EccentricityResult(
            eccentricities=self.bounds.eccentricities(),
            lower=self.bounds.lower.copy(),
            upper=self.bounds.upper.copy(),
            exact=True,
            algorithm=(
                algorithm if algorithm is not None else self._algorithm_tag()
            ),
            num_bfs=self.counter.bfs_runs,
            elapsed_seconds=elapsed,
            reference_nodes=self.references.copy(),
            counter=self.counter,
        )

    def run_budgeted(
        self, max_bfs: int, algorithm: Optional[str] = None
    ) -> EccentricityResult:
        """Stop after ``max_bfs`` total traversals; lower bounds become
        the estimate (the anytime by-product of Section 1,
        contribution 5)."""
        if max_bfs < 0:
            raise InvalidParameterError("max_bfs must be non-negative")
        tracer = self._active_tracer()
        watch = Stopwatch()
        exact = True
        with tracer.span(
            "solver.run",
            algorithm=(
                algorithm
                if algorithm is not None
                else f"{self._algorithm_tag()}(budget={max_bfs})"
            ),
            metric=self.oracle.metric_name,
            budget=max_bfs,
        ) as run_span:
            for snapshot in self.steps():
                if snapshot.bfs_runs >= max_bfs:
                    exact = self.bounds.all_resolved()
                    break
            else:
                exact = True
            run_span.set(traversals=self.counter.bfs_runs, exact=exact)
        elapsed = watch.elapsed()
        if tracer.enabled:
            tracer.metrics.ingest_traversal_counter(self.counter)
        return EccentricityResult(
            eccentricities=self.bounds.lower.copy(),
            lower=self.bounds.lower.copy(),
            upper=self.bounds.upper.copy(),
            exact=exact,
            algorithm=(
                algorithm
                if algorithm is not None
                else f"{self._algorithm_tag()}(budget={max_bfs})"
            ),
            num_bfs=self.counter.bfs_runs,
            elapsed_seconds=elapsed,
            reference_nodes=self.references.copy(),
            counter=self.counter,
        )
