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
   may sweep a territory's later probes together as MS-BFS lanes
   (see :meth:`EccentricitySolver._sweep_territory`); it applies their
   rows in the same order, so results, traversal counts and snapshots
   are unchanged.

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
the ``r`` reference distance vectors, and at most one lane batch of
``64 * |unresolved|`` distance cells — a batch records only the
territory's unresolved members (whole rows when ``memoize_distances``
is on, since memoised rows must be complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
        # Scratch for the traced-probe gap-mass reduction; see
        # _finish_probe_span.
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
                self._finish_probe_span(tracer, span, ffo.eccentricity, snap)
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

        With ``batched`` set and an oracle that offers ``sweep_batch``,
        the next fresh probes are swept together as MS-BFS lanes
        (:func:`repro.graph.msengine.plan_sweep_width` picks how many).
        Lemmas 3.1 and 3.3 only need each probe's exact distance row,
        and the probes of the FFO prefix are known before they run, so
        applying the lane rows one by one, in FFO order, yields the
        bounds, counts and snapshots of one traversal per probe; only
        the rows past the stopping rank go unused.  A probe's row is
        read only on the still-unresolved members (Lemma 3.3 reads the
        reference's vector), and those only shrink, so a batch records
        just the members unresolved when it starts.
        """
        bounds = self.bounds
        tracer = self._active_tracer()
        ffo = territory.ffo
        dist_into_z = territory.dist_into
        unresolved = bounds.unresolved_subset(territory.members)
        if len(unresolved) == 0:
            return
        sweep_batch = (
            getattr(self.oracle, "sweep_batch", None) if batched else None
        )
        # The current lane batch: rows [lane, len) serve the next fresh
        # probes, in FFO order; their columns are the vertices
        # `lane_targets`, a sorted superset of `unresolved`.
        lane_eccs = lane_rows = lane_targets = np.empty(0, dtype=np.int32)
        lane = 0
        consumed = 0
        for rank, source in enumerate(ffo.order):
            source = int(source)
            if source == territory.reference:
                continue
            tail_radius = ffo.distance_of_rank(rank + 1)
            # Column of each unresolved member in `dist_s`.
            columns = unresolved
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
                    tracer.span(
                        "solver.probe",
                        probe="sweep",
                        source=source,
                        territory=territory.reference,
                        ffo_rank=rank,
                        metric=self.oracle.metric_name,
                        oracle=getattr(
                            self.oracle, "trace_kind", self.oracle.metric_name
                        ),
                    )
                    if tracer.enabled
                    else None
                )
                if lane == len(lane_rows) and sweep_batch is not None:
                    width = plan_sweep_width(consumed)
                    if width:
                        # Memoised rows must be whole.
                        lane_targets = (
                            np.arange(self.oracle.num_vertices)
                            if self.memoize_distances
                            else unresolved
                        )
                        # The sweep runs inside this probe's span.
                        lane_eccs, lane_rows = sweep_batch(
                            self._next_probes(territory, rank, width),
                            lane_targets,
                            counter=self.counter,
                        )
                        lane = 0
                if lane < len(lane_rows):
                    ecc_s, dist_s = int(lane_eccs[lane]), lane_rows[lane]
                    columns = np.searchsorted(lane_targets, unresolved)
                    lane += 1
                    self.counter.consume_lane()
                else:
                    # The vector may alias the oracle's pooled
                    # workspace; it is consumed before the next
                    # traversal and only the memoised copy outlives
                    # this iteration.
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
            bounds.raise_lower_subset(unresolved, dist_s[columns])
            # ... and Lemma 3.3's shrinking tail cap (upper).
            bounds.apply_lemma33_tail(
                dist_into_z, tail_radius, subset=unresolved
            )
            if fresh_probe:
                snap = self._snapshot(source)
                if span is not None:
                    self._finish_probe_span(tracer, span, ecc_s, snap)
                yield snap
            unresolved = bounds.unresolved_subset(unresolved)
            if len(unresolved) == 0:
                break
        self.counter.discard_lanes()

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

    def _active_tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def _finish_probe_span(
        self,
        tracer: Tracer,
        span: Any,
        ecc_value: Optional[float],
        snap: ProgressSnapshot,
    ) -> None:
        """Attach post-traversal facts to a probe span and close it.

        Only called when tracing is enabled; the gauges mirror the
        event stream so metric consumers see convergence without
        replaying events.  ``gap`` is the remaining bound-gap mass —
        per-vertex ``upper - lower`` capped at the oracle's finite
        eccentricity bound (untouched vertices carry an infinity
        sentinel) and summed — the certificate-size signal the live
        progress monitor plots.
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
        buf = self._gap_buf
        if buf is None or len(buf) != snap.num_vertices:
            buf = self._gap_buf = np.empty(snap.num_vertices, np.float64)
        # In-place fused equivalent of
        # ``np.minimum(self.bounds.gap(), self.oracle.gap_cap()).sum()``
        # — this runs once per traced traversal, and the temporaries the
        # spelled-out form allocates are the single largest slice of the
        # capture overhead budget enforced by bench_obs_overhead.
        np.subtract(self.bounds.upper, self.bounds.lower, out=buf)
        np.minimum(buf, self.oracle.gap_cap(), out=buf)
        gap_mass = float(buf.sum())
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

        Sweep probes may run as MS-BFS lane batches (see
        :meth:`_sweep_territory`); the result, the counter's runs and
        history, and the probe spans equal those of exhausting
        :meth:`steps`.  The counter's work totals also include the
        unused lanes, which ``lanes_discarded`` counts.
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
