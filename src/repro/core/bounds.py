"""Eccentricity bound maintenance (Lemmas 3.1 and 3.3), metric-generic.

Every algorithm under the BFS-framework keeps, for each vertex ``v``, a
lower bound ``ecc_lower[v]`` and an upper bound ``ecc_upper[v]`` on
``ecc(v)``, initialised to ``0`` and ``+inf`` (Section 3.1 step 1).  After a
traversal from a source ``t`` with known ``ecc(t)`` and distance vector
``dist(t, .)``, the triangle inequalities of Lemma 3.1 tighten the bounds
of every other vertex:

.. math::

    ecc(v) \\le dist(v, t) + ecc(t)

    ecc(v) \\ge \\max\\{dist(v, t),\\; ecc(t) - dist(t, v)\\}

When distance probing follows a farthest-first node order ``L^z`` of a
reference node ``z``, Lemma 3.3 additionally caps ``ecc(v)`` by what the
*unprobed tail* of the order can contribute:

.. math::

    ecc(v) \\le \\max\\{\\underline{ecc}(v),\\;
                       dist(v_{next}, z) + dist(v, z)\\}

where ``v_next`` is the first unprobed node.  (The paper states the lemma
with the last probed node ``v_i``; using the next unprobed node is the
slightly tighter variant the paper's own Example 3.4 traces, and is valid
by the same proof since every unprobed node ``u`` has
``dist(u, z) <= dist(v_next, z)``.)

Both lemmas are pure triangle inequalities, so they hold for *any*
shortest-path metric — unweighted hops, non-negative edge weights, and
directed reachability alike (Dragan et al.'s certificate view).  A
:class:`BoundState` is therefore parameterised by

* ``dtype`` — ``int32`` hop counts (the paper's setting) or ``float64``
  weighted distances;
* ``tolerance`` — the slack used by every bound comparison.  Integer
  metrics use the exact ``0`` default; float metrics pass an absolute
  tolerance (distances are sums of ``float64`` weights) and every
  "have the bounds met?" question goes through the single
  :meth:`BoundState.bounds_met` helper;
* for *directed* (asymmetric) metrics, ``dist(v, t) != dist(t, v)`` in
  general, so the Lemma 3.1 update takes both vectors (``dist_into``
  and ``dist_from``); symmetric callers pass the same vector twice.

The bounds have three writers: :meth:`BoundState.set_exact` pins one
vertex, :meth:`BoundState.apply_lemma31` applies Lemma 3.1 to every
vertex or to a territory, and :meth:`BoundState.apply_sweep_block`
applies FFO sweep probes (Lemma 3.1 lowers and the Lemma 3.3 tail cap).
Each re-checks the core invariant ``lower <= upper (+ tolerance)`` on
every call, with whole-array numpy operations only.

Along an FFO sweep both updates are monotone — Lemma 3.1 lowers are a
running max of the probe rows, Lemma 3.3 uppers a running min of the
tail caps — so :meth:`BoundState.apply_sweep_block` applies a whole
batch of probe rows at once, with the result of applying them one by
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import InvalidParameterError
from repro.sentinels import INFINITE_ECC, infinity_for, unreached_mask

__all__ = [
    "INFINITE_ECC",
    "BoundState",
    "SweepBlock",
]

#: Numeric scalar accepted wherever an eccentricity value is expected.
Numeric = Union[int, float]


@dataclass(frozen=True)
class SweepBlock:
    """What :meth:`BoundState.apply_sweep_block` applied.

    Attributes
    ----------
    used:
        Rows applied: up to the row after which every column has
        resolved, or all of them.
    unresolved:
        The members of the block's ``subset`` still unresolved.
    closing_row:
        Per column, the row that resolved it (its closing probe), or
        ``-1`` while it is unresolved.
    resolved:
        Per applied row, :meth:`BoundState.num_resolved` after it.
    gap_mass:
        Per applied row, the capped gap mass after it (see
        :meth:`BoundState.apply_sweep_block`), or ``None`` when the
        caller passed no cap.
    """

    used: int
    unresolved: np.ndarray
    closing_row: np.ndarray
    resolved: np.ndarray
    gap_mass: Optional[np.ndarray]


class BoundState:
    """Mutable lower/upper eccentricity bounds for all vertices.

    Parameters
    ----------
    num_vertices:
        Size of the bound vectors.
    dtype:
        Bound-array dtype — ``int32`` (default, unweighted/directed hop
        metrics) or ``float64`` (weighted distances).
    tolerance:
        Absolute comparison slack used by :meth:`bounds_met` and every
        consistency check.  ``0`` (default) gives exact integer
        comparison; float metrics pass e.g. ``1e-9``.

    The "+infinity" initial upper bound, :attr:`infinity`, is the
    dtype's canonical sentinel (``2**30`` for integers, ``inf`` for
    floats).

    Notes
    -----
    The class enforces the core invariant ``lower <= upper + tolerance``
    on every update; a violation means the caller fed inconsistent
    distances and is reported as :class:`InvalidParameterError` rather
    than silently producing a wrong eccentricity.
    """

    __slots__ = (
        "lower", "upper", "tolerance", "infinity", "_dtype", "_gap_buf"
    )

    def __init__(
        self,
        num_vertices: int,
        dtype: "np.typing.DTypeLike" = np.int32,
        tolerance: float = 0.0,
    ) -> None:
        if num_vertices < 0:
            raise InvalidParameterError("num_vertices must be non-negative")
        if tolerance < 0:
            raise InvalidParameterError("tolerance must be non-negative")
        self._dtype = np.dtype(dtype)
        self.tolerance = float(tolerance)
        self.infinity = infinity_for(self._dtype)
        self.lower = np.zeros(num_vertices, dtype=self._dtype)
        self.upper = np.full(num_vertices, self.infinity, dtype=self._dtype)
        # Scratch for capped_gap_mass, allocated on first use.
        self._gap_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.lower)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def bounds_met(
        self,
        lower: Union[np.ndarray, Numeric],
        upper: Union[np.ndarray, Numeric],
    ) -> Union[np.ndarray, np.bool_]:
        """The one "have these bounds met?" comparison, tolerance-aware.

        Every resolution test in the solver core — scalar or
        whole-array — routes through this helper so integer metrics get
        exact comparison (``tolerance == 0`` with ``lower <= upper``
        invariant reduces it to equality) and float metrics get the
        documented absolute-tolerance comparison, in one place.
        """
        return upper - lower <= self.tolerance  # type: ignore[operator]

    def resolved_mask(self) -> np.ndarray:
        """Boolean mask of vertices whose bounds have met."""
        return np.asarray(self.bounds_met(self.lower, self.upper))

    def unresolved_subset(self, subset: np.ndarray) -> np.ndarray:
        """The members of ``subset`` whose bounds have not met yet."""
        met = np.asarray(self.bounds_met(self.lower[subset], self.upper[subset]))
        return subset[~met]

    def num_resolved(self) -> int:
        """Number of vertices with matching bounds."""
        return int(np.count_nonzero(self.resolved_mask()))

    def all_resolved(self) -> bool:
        return self.num_resolved() == self.num_vertices

    def gap(self) -> np.ndarray:
        """Per-vertex ``upper - lower`` gap, widened to avoid overflow.

        :dtype gap: int64
        """
        if np.issubdtype(self._dtype, np.floating):
            return self.upper.astype(np.float64) - self.lower.astype(
                np.float64
            )
        return self.upper.astype(np.int64) - self.lower.astype(np.int64)

    def capped_gap_mass(self, cap: float) -> float:
        """``np.minimum(self.gap(), cap).sum()``, fused in place: it runs
        once per traced probe, where that form's temporaries are the
        largest slice of the tracing overhead budget."""
        buf = self._gap_buf
        if buf is None:
            buf = self._gap_buf = np.empty(len(self.lower), np.float64)
        np.subtract(self.upper, self.lower, out=buf)
        np.minimum(buf, cap, out=buf)
        return float(buf.sum())

    def eccentricities(self) -> np.ndarray:
        """The exact eccentricities; requires all bounds resolved."""
        if not self.all_resolved():
            raise InvalidParameterError(
                "bounds are not all resolved; eccentricities are not final"
            )
        return self.lower.copy()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def set_exact(self, vertex: int, value: Numeric) -> None:
        """Pin one vertex's eccentricity (e.g. after its own traversal)."""
        self._check_pin(vertex, value)
        self.lower[vertex] = value
        self.upper[vertex] = value

    def apply_lemma31(
        self,
        dist_into: np.ndarray,
        dist_from: np.ndarray,
        ecc: Numeric,
        subset: Optional[np.ndarray] = None,
    ) -> None:
        """Tighten bounds after a traversal of ``t`` (Lemma 3.1).

        ``dist_into`` holds ``dist(v, t)``, which drives the lower bound
        ``ecc(v) >= dist(v, t)`` and the upper bound ``ecc(v) <= dist(v,
        t) + ecc``; ``dist_from`` holds ``dist(t, v)`` for the second
        lower bound ``ecc(v) >= ecc - dist(t, v)``.  Symmetric metrics
        pass the same vector twice.  With ``subset``, only those
        vertices are tightened (the territory seeding of Algorithm 2,
        lines 8-9); the distances stay full vectors.  Unreachable
        entries are left untouched, and a raise leaves every bound as
        it was.
        """
        dtype = self._dtype
        lower, upper = self.lower, self.upper
        if subset is not None:
            dist_into, dist_from = dist_into[subset], dist_from[subset]
            lower, upper = lower[subset], upper[subset]
        reachable = ~unreached_mask(dist_into)
        dist = dist_into.astype(dtype, copy=False)
        lower_candidate = np.maximum(
            dist, ecc - dist_from.astype(dtype, copy=False)
        )
        new_lower = np.maximum(lower, np.where(reachable, lower_candidate, 0))
        new_upper = np.where(reachable, np.minimum(upper, dist + ecc), upper)
        self._check_consistent(
            bool(np.all(new_lower <= new_upper + self.tolerance)),
            "Lemma 3.1 update produced lower > upper: inconsistent distances",
        )
        if subset is None:
            # Rebinding commits a full vector without a copy.
            self.lower, self.upper = new_lower, new_upper
        else:
            self.lower[subset] = new_lower
            self.upper[subset] = new_upper

    def apply_sweep_block(
        self,
        subset: np.ndarray,
        rows: np.ndarray,
        dist_to_z: np.ndarray,
        tails: "np.typing.ArrayLike",
        pin_rows: "np.typing.ArrayLike",
        pin_vertices: "np.typing.ArrayLike",
        pin_values: "np.typing.ArrayLike",
        gap_cap: Optional[float] = None,
    ) -> SweepBlock:
        """Apply consecutive FFO sweep probes as one block (Alg. 2, 10-18).

        ``subset`` holds strictly increasing unresolved vertex ids (the
        columns), ``rows[i, j]`` is ``dist(subset[j], s_i)`` for the
        ``i``-th probe ``s_i``, ``dist_to_z`` is ``dist(subset, z)`` and
        ``tails[i]`` the Lemma 3.3 tail radius once ``s_i`` is probed.
        Probe rows that determined an eccentricity pin it:
        ``set_exact(pin_vertices[t], pin_values[t])`` just before row
        ``pin_rows[t]`` (non-decreasing; ``tails`` and the pins may be
        sequences).  The result equals applying the rows one at a time
        — pins, ``lower[subset] = max(lower[subset], row)``, the
        Lemma 3.3 cap ``upper[subset] = min(upper[subset],
        max(lower[subset], dist_to_z + tails[i]))``, then dropping the
        resolved members — until no member is left, with the same
        consistency checks.  Every check runs before the first write, so
        a raise leaves the bounds untouched.

        Both updates are monotone, so the block has a closed form: the
        lowers are ``maximum.accumulate`` of ``[lower; rows]`` and the
        uppers ``minimum.accumulate`` of ``[upper; max(lower_i,
        dist_to_z + tails[i])]`` down the rows.  A column resolves at
        its first met row, or at its own pin if that comes no later,
        and keeps the values of that row; every other pin is a point
        write.  A one-row block (a single probe or replayed row) takes
        the short form of the same update: pins, then ``max(lower,
        row)``, then ``min(upper, max(lower', dist_to_z + tail))``.
        ``gap_mass`` sums ``min(upper - lower, gap_cap)`` over all
        vertices after each row; it is computed only when ``gap_cap`` is
        given.  One row sums it afresh; more rows add per-row deltas to
        the block start (exact for integer bounds; float sums may differ
        in the last bits).

        :mutates rows: may be overwritten with the running lower bounds
            (it must have the bounds' dtype).
        """
        dtype = self._dtype
        tol = self.tolerance
        k, width = rows.shape
        if rows.dtype != dtype:
            raise InvalidParameterError(
                f"sweep block rows must be {dtype}, not {rows.dtype}"
            )
        if k == 0 or width == 0:
            nothing = np.empty(0, dtype=np.int64)
            gaps = None if gap_cap is None else nothing.astype(float)
            return SweepBlock(0, subset, np.full(width, -1), nothing, gaps)
        if k == 1:
            return self._apply_sweep_row(
                subset,
                rows[0],
                dist_to_z,
                tails[0],
                zip(pin_rows, pin_vertices, pin_values),
                gap_cap,
            )
        pin_rows = np.asarray(pin_rows, dtype=np.int64)
        pin_vertices = np.asarray(pin_vertices, dtype=np.int64)
        pin_values = np.asarray(pin_values).astype(dtype)
        lower0 = self.lower[subset]
        upper0 = self.upper[subset]
        base_resolved = self.num_resolved()
        base_gap = 0.0 if gap_cap is None else self.capped_gap_mass(gap_cap)

        # Pins on a column: a probe that is itself unresolved.  Its row
        # holds its own distance (0) before the scan overwrites it.
        pos = np.minimum(np.searchsorted(subset, pin_vertices), width - 1)
        col_pins = np.flatnonzero(subset[pos] == pin_vertices)
        pin_cols = pos[col_pins]
        self_dist = rows[pin_rows[col_pins], pin_cols]

        # Lemma 3.1 lowers, then Lemma 3.3 uppers, as running extrema
        # down the rows.  (A row loop streams contiguous rows; a
        # ufunc.accumulate along axis 0 strides and is slower.)
        rows[0] = np.maximum(rows[0], lower0)
        for i in range(1, k):
            np.maximum(rows[i], rows[i - 1], out=rows[i])
        low = rows
        up = np.add.outer(
            np.asarray(tails).astype(dtype), dist_to_z.astype(dtype)
        )
        np.maximum(up, low, out=up)
        np.minimum(up[0], upper0, out=up[0])
        for i in range(1, k):
            np.minimum(up[i], up[i - 1], out=up[i])
        met = np.asarray(self.bounds_met(low, up))
        # upper - lower never grows down the rows, so a column stays met
        # from its first met row on (k: never within the block).
        closing = k - np.add.reduce(met, axis=0, dtype=np.int32)
        wins = pin_rows[col_pins] <= closing[pin_cols]
        win_cols = pin_cols[wins]
        win_rows = pin_rows[col_pins[wins]]
        win_values = pin_values[col_pins[wins]]
        closing[win_cols] = win_rows
        used = int(min(closing.max() + 1, k))

        # Each column keeps its values at its closing row (or the last
        # applied one); a column pinned there takes its pin instead,
        # after set_exact's window check against the row before.
        cols = np.arange(width)
        last = np.minimum(closing, used - 1)
        last[win_cols] -= 1
        final_low = low[last, cols]
        final_up = up[last, cols]
        first = win_rows == 0
        self._check_pins(
            subset[win_cols],
            win_values,
            np.where(first, lower0[win_cols], final_low[win_cols]),
            np.where(first, upper0[win_cols], final_up[win_cols]),
        )
        final_low[win_cols] = np.maximum(win_values, self_dist[wins])
        final_up[win_cols] = win_values
        # A row with lower > upper + tolerance also meets, and lower -
        # upper never shrinks down the rows, so a column can first break
        # the invariant only at its closing row: checking the kept
        # values checks every row the column took.
        self._check_consistent(
            bool(np.all(final_low <= final_up + tol)),
            "Lemma 3.1/3.3 block update produced lower > upper: "
            "inconsistent distances",
        )

        # Every other applied pin is a point write, in row order, checked
        # against the values its vertex holds once the columns are
        # written: a column's kept values, else its current bounds.
        point = pin_rows < used
        point[col_pins[wins]] = False
        pv = pin_vertices[point]
        p_rows = pin_rows[point]
        p_values = pin_values[point]
        p_lower = self.lower[pv]
        p_upper = self.upper[pv]
        p_pos = np.minimum(np.searchsorted(subset, pv), width - 1)
        on_col = subset[p_pos] == pv
        p_lower[on_col] = final_low[p_pos[on_col]]
        p_upper[on_col] = final_up[p_pos[on_col]]
        self._check_pins(pv, p_values, p_lower, p_upper)
        was_met = np.asarray(self.bounds_met(p_lower, p_upper))

        # Every check passed: commit.
        closed = closing < used
        self.lower[subset] = final_low
        self.upper[subset] = final_up
        self.lower[pv] = p_values
        self.upper[pv] = p_values

        newly = np.bincount(closing[closed], minlength=used)
        newly += np.bincount(p_rows[~was_met], minlength=used)
        gap_mass = None
        if gap_cap is not None:
            # Per-row gap mass of the columns: a column counts its scan
            # gap while unmet, then its kept gap from its closing row on;
            # a pinned column's scan rows from its pin on do not count.
            gaps = up[:used] - low[:used]
            # Every gap is at most the infinity sentinel, so the capped
            # gaps stay in the bounds' dtype (an integer metric's cap is
            # integral).
            cap = np.asarray(min(gap_cap, self.infinity)).astype(dtype)
            np.minimum(gaps, cap, out=gaps)
            np.multiply(gaps, ~met[:used], out=gaps)
            col_gap = gaps.sum(axis=1).astype(np.float64)
            col_gap -= np.multiply(
                gaps[:, win_cols], np.arange(used)[:, None] >= win_rows
            ).sum(axis=1)
            col_gap += np.cumsum(
                np.bincount(
                    closing[closed],
                    weights=np.minimum(final_up - final_low, gap_cap)[closed],
                    minlength=used,
                )
            )
            col_gap -= float(np.minimum(upper0 - lower0, gap_cap).sum())
            point_delta = np.bincount(
                p_rows,
                weights=np.minimum(p_upper - p_lower, gap_cap),
                minlength=used,
            )
            gap_mass = base_gap + col_gap - np.cumsum(point_delta)
        return SweepBlock(
            used=used,
            unresolved=subset[~closed],
            closing_row=np.where(closed, closing, -1),
            resolved=base_resolved + np.cumsum(newly),
            gap_mass=gap_mass,
        )

    def _apply_sweep_row(
        self,
        subset: np.ndarray,
        row: np.ndarray,
        dist_to_z: np.ndarray,
        tail: Numeric,
        pins: Iterable[Tuple[int, int, Numeric]],
        gap_cap: Optional[float],
    ) -> SweepBlock:
        """:meth:`apply_sweep_block` of a one-row block, as one probe.

        Kept because the closed form is slower on one row: a kIFECC
        sweep of one-row blocks took 347 ms without this path, against
        270 ms with it (EXPERIMENTS.md, "Forks kept").
        """
        lower = self.lower[subset]
        upper = self.upper[subset]
        # The row-0 pins, checked now and written with the columns; a
        # pinned column starts the row from its pin.
        pinned = [
            (int(vertex), self._dtype.type(value))
            for at, vertex, value in pins
            if at == 0
        ]
        for vertex, value in pinned:
            self._check_pin(vertex, value)
            j = int(np.searchsorted(subset, vertex))
            if j < len(subset) and subset[j] == vertex:
                lower[j] = upper[j] = value
        np.maximum(lower, row, out=lower)
        # Lemma 3.3 caps upper at max(lower, ...) >= lower, so only the
        # Lemma 3.1 raise can break the invariant.
        self._check_consistent(
            bool(np.all(lower <= upper + self.tolerance)),
            "Lemma 3.1/3.3 block update produced lower > upper: "
            "inconsistent distances",
        )
        cap = np.add(dist_to_z, tail, dtype=self._dtype)
        np.maximum(cap, lower, out=cap)
        np.minimum(cap, upper, out=upper)
        for vertex, value in pinned:
            self.lower[vertex] = self.upper[vertex] = value
        self.lower[subset] = lower
        self.upper[subset] = upper
        met = np.asarray(self.bounds_met(lower, upper))
        gaps = None
        if gap_cap is not None:
            gaps = np.array([self.capped_gap_mass(gap_cap)])
        resolved = np.array([self.num_resolved()])
        closing = np.where(met, 0, -1)
        return SweepBlock(1, subset[~met], closing, resolved, gaps)

    def _check_pin(self, vertex: int, value: Numeric) -> None:
        """Reject pinning ``vertex`` outside its current bounds."""
        tol = self.tolerance
        # Python scalars: this runs once per probe.
        lower, upper = self.lower.item(vertex), self.upper.item(vertex)
        if not lower - tol <= value <= upper + tol:
            raise InvalidParameterError(
                f"exact ecc {value} outside current bounds of vertex {vertex}"
            )

    def _check_pins(
        self,
        vertices: np.ndarray,
        values: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        """:meth:`set_exact`'s window check over arrays, in order."""
        tol = self.tolerance
        outside = ~((lower - tol <= values) & (values <= upper + tol))
        if np.any(outside):
            bad = int(np.argmax(outside))
            self._check_consistent(
                False,
                f"exact ecc {values[bad]} outside current bounds of "
                f"vertex {vertices[bad]}",
            )

    @staticmethod
    def _check_consistent(condition: bool, message: str) -> None:
        if not condition:
            raise InvalidParameterError(message)

    def __repr__(self) -> str:
        return (
            f"BoundState(n={self.num_vertices}, "
            f"resolved={self.num_resolved()})"
        )
