"""``BoundState.apply_sweep_block`` equals applying its rows one by one.

The reference applies each row as one FFO probe does: its pins
(``set_exact``), the row as a lower-only update on the remaining columns
(``tests.helpers.apply_lower_only``), the Lemma 3.3 tail cap
(``tests.helpers.apply_lemma33_tail``), then ``unresolved_subset``,
stopping once no column is left.  Both must agree
on the bounds, the rows used, the closing row of every column, the
per-row resolved counts and gap masses, and on raising
``InvalidParameterError``; a block that raises leaves the bounds as
they were.  Float inputs are multiples of 1/4, so every
sum is exact and float results are compared bit for bit too.  One-row
blocks (one probe with or without its pin, or one replayed row) are the
single steps of ``EccentricitySolver.steps()``; without a gap cap the
block computes no gap mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundState
from repro.errors import InvalidParameterError
from helpers import apply_lemma33_tail, apply_lower_only

#: (row, vertex, value): ``set_exact(vertex, value)`` before ``row``.
Pin = Tuple[int, int, float]


@dataclass
class Block:
    """One block's inputs, with the bounds it starts from."""

    dtype: Any
    tolerance: float
    lower: np.ndarray
    upper: np.ndarray
    subset: np.ndarray
    rows: np.ndarray
    dist_to_z: np.ndarray  # dist(v, z) for every vertex v
    tails: np.ndarray
    pins: List[Pin]
    gap_cap: float = 40.0

    def state(self) -> BoundState:
        n = len(self.lower)
        state = BoundState(n, dtype=self.dtype, tolerance=self.tolerance)
        apply_lower_only(state, self.lower)
        # A zero tail caps each upper bound at max(lower, upper) = upper.
        apply_lemma33_tail(state, self.upper, 0)
        assert state.lower.tolist() == self.lower.tolist()
        assert state.upper.tolist() == self.upper.tolist()
        return state


def one_by_one(block: Block) -> Tuple[BoundState, Dict[str, Any]]:
    """Apply ``block`` a row at a time, as ``EccentricitySolver.steps()``."""
    state = block.state()
    current = block.subset.copy()
    closing = np.full(len(block.subset), -1)
    resolved: List[int] = []
    gaps: List[float] = []
    for i, row in enumerate(block.rows):
        if len(current) == 0:
            break
        for at, vertex, value in block.pins:
            if at == i:
                state.set_exact(vertex, value)
        # The current lower bounds elsewhere, so the update leaves them
        # alone even after a corrupted pin set one below zero.
        raised = state.lower.copy()
        raised[current] = row[np.searchsorted(block.subset, current)]
        apply_lower_only(state, raised)
        apply_lemma33_tail(state, block.dist_to_z, block.tails[i], subset=current)
        resolved.append(state.num_resolved())
        gaps.append(float(np.minimum(state.gap(), block.gap_cap).sum()))
        left = state.unresolved_subset(current)
        closing[np.searchsorted(block.subset, np.setdiff1d(current, left))] = i
        current = left
    return state, {
        "used": len(resolved),
        "unresolved": current.tolist(),
        "closing_row": closing.tolist(),
        "resolved": resolved,
        "gap_mass": gaps,
    }


def as_block(
    block: Block, gap: bool = True, state: Optional[BoundState] = None
) -> Tuple[BoundState, Dict[str, Any]]:
    """Apply ``block`` through ``apply_sweep_block`` (with no gap cap
    unless ``gap``), to ``state`` or to a fresh ``block.state()``."""
    state = block.state() if state is None else state
    pins = np.array(block.pins, dtype=np.float64).reshape(-1, 3)
    scan = state.apply_sweep_block(
        block.subset,
        block.rows.copy(),
        block.dist_to_z[block.subset],
        block.tails,
        pins[:, 0].astype(np.int64),
        pins[:, 1].astype(np.int64),
        pins[:, 2].astype(block.dtype),
        block.gap_cap if gap else None,
    )
    return state, {
        "used": scan.used,
        "unresolved": scan.unresolved.tolist(),
        "closing_row": scan.closing_row.tolist(),
        "resolved": scan.resolved.tolist(),
        "gap_mass": None if scan.gap_mass is None else scan.gap_mass.tolist(),
    }


def assert_same(block: Block, gap: bool = True) -> Optional[Dict[str, Any]]:
    """Both paths agree; returns the outcome (None when both raised, in
    which case the block left the bounds as they were)."""
    try:
        want_state, want = one_by_one(block)
    except InvalidParameterError:
        state = block.state()
        with pytest.raises(InvalidParameterError):
            as_block(block, gap, state)
        assert state.lower.tolist() == block.lower.tolist()
        assert state.upper.tolist() == block.upper.tolist()
        return None
    got_state, got = as_block(block, gap)
    if not gap:
        want["gap_mass"] = None
    assert got == want
    assert got_state.lower.tolist() == want_state.lower.tolist()
    assert got_state.upper.tolist() == want_state.upper.tolist()
    return got


def random_block(
    seed: int, floating: bool, corrupt: bool, one_row: Optional[str] = None
) -> Block:
    """Monotone FFO-like inputs: rows below a hidden truth, shrinking tails.

    With ``corrupt`` set, one row entry or one pin may leave the truth's
    window, so the checks get exercised as well.  ``one_row`` makes a
    one-row block: a probe that pins its eccentricity (``"pin"``), a
    probe that determines none, as a directed backward BFS (``"no
    pin"``), or a retained row replayed (``"replay"``).
    """
    rng = np.random.default_rng(seed)
    scale = 4 if floating else 1
    dtype = np.float64 if floating else np.int32
    n = int(rng.integers(2, 14))
    k = int(rng.integers(1, 9)) if one_row is None else 1

    def draw(low: Any, high: Any) -> Any:
        return rng.integers(low * scale, high * scale + 1) / scale

    truth = draw(np.full(n, 1), 9)
    lower = np.minimum(truth, draw(np.zeros(n), 9))
    upper = np.where(rng.random(n) < 0.3, np.inf, truth + draw(np.zeros(n), 4))
    width = int(rng.integers(1, n + 1))
    subset = np.sort(rng.choice(n, size=width, replace=False))
    # Columns start unresolved, whatever the tolerance.
    upper[subset] = np.maximum(upper[subset], lower[subset] + 2)
    rows = draw(np.zeros((k, width)), truth[subset])
    dist_to_z = draw(np.zeros(n), 5)
    tails = np.sort(draw(np.zeros(k), 6))[::-1]
    pins: List[Pin] = []
    probes = rng.choice(n, size=min(n, k), replace=False)
    for i, vertex in enumerate(probes.tolist()):
        replayed = rng.random() < 0.3 if one_row is None else one_row == "replay"
        if replayed:
            continue  # a replayed row: no pin
        if one_row != "no pin":
            pins.append((i, vertex, float(truth[vertex])))
        if vertex in subset:
            rows[i, np.searchsorted(subset, vertex)] = 0
    if corrupt and rng.random() < 0.5:
        rows[rng.integers(k), rng.integers(width)] += draw(1, 5)
    elif corrupt and pins:
        at, vertex, value = pins[0]
        pins[0] = (at, vertex, value + draw(1, 5) * rng.choice([-1, 1]))
    infinity = BoundState(1, dtype=dtype).infinity
    return Block(
        dtype=dtype,
        tolerance=float(rng.choice([0.25, 1.0])) if floating else 0.0,
        lower=lower.astype(dtype),
        upper=np.where(np.isinf(upper), infinity, upper).astype(dtype),
        subset=subset.astype(np.int64),
        rows=rows.astype(dtype),
        dist_to_z=dist_to_z.astype(dtype),
        tails=tails.astype(dtype),
        pins=pins,
    )


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    floating=st.booleans(),
    corrupt=st.booleans(),
    one_row=st.sampled_from([None, None, None, "pin", "no pin", "replay"]),
    gap=st.booleans(),
)
def test_block_equals_rows_one_by_one(
    seed: int, floating: bool, corrupt: bool, one_row: Optional[str], gap: bool
) -> None:
    assert_same(random_block(seed, floating, corrupt, one_row), gap)


def test_random_blocks_cover_every_outcome() -> None:
    """The generator reaches every case the property is meant to cover."""
    seen = set()
    for seed in range(400):
        for floating in (False, True):
            block = random_block(seed, floating, corrupt=seed % 4 == 0)
            out = assert_same(block)
            if out is None:
                seen.add("raises")
                continue
            k = len(block.rows)
            if out["unresolved"]:
                seen.add("never")
            else:
                seen.add("last row" if out["used"] == k else "earlier row")
            if out["used"] == 1 and not out["unresolved"]:
                seen.add("first row")
            if any(v in block.subset for _, v, _ in block.pins):
                seen.add("pinned column")
    assert seen >= {
        "raises",
        "never",
        "last row",
        "earlier row",
        "first row",
        "pinned column",
    }
    # One-row blocks: each kind raises, resolves some column and leaves
    # some unresolved; a probe's pin may land on a column.
    for one_row in ("pin", "no pin", "replay"):
        seen = set()
        for seed in range(200):
            block = random_block(seed, seed % 3 == 0, seed % 4 == 0, one_row)
            out = assert_same(block, gap=seed % 2 == 0)
            if out is None:
                seen.add("raises")
                continue
            if len(out["unresolved"]) < len(block.subset):
                seen.add("resolves")
            if out["unresolved"]:
                seen.add("unresolved")
            if any(v in block.subset for _, v, _ in block.pins):
                seen.add("pinned column")
        want = {"raises", "resolves", "unresolved"}
        assert seen >= (want | {"pinned column"} if one_row == "pin" else want)


def _example(dtype: Any = np.int32, tolerance: float = 0.0) -> Block:
    """Columns 0..3 of a 6-vertex territory; vertices 4, 5 lie outside."""
    infinity = BoundState(1, dtype=dtype).infinity
    return Block(
        dtype=dtype,
        tolerance=tolerance,
        lower=np.array([1, 2, 3, 1, 2, 4], dtype=dtype),
        upper=np.array([infinity] * 4 + [6, 4], dtype=dtype),
        subset=np.arange(4),
        rows=np.array(
            [[2, 3, 3, 1], [3, 0, 4, 2], [4, 3, 4, 3], [4, 3, 5, 4]], dtype=dtype
        ),
        dist_to_z=np.array([2, 1, 2, 2, 0, 0], dtype=dtype),
        tails=np.array([3, 2, 2, 1], dtype=dtype),
        pins=[],
    )


class TestExamples:
    def test_resolves_on_the_first_row(self) -> None:
        block = _example()
        block.tails = np.array([0, 0, 0, 0], dtype=np.int32)
        block.dist_to_z = np.array([0, 0, 0, 0, 0, 0], dtype=np.int32)
        out = assert_same(block)
        assert out is not None and out["used"] == 1 and out["unresolved"] == []

    def test_resolves_on_the_last_row(self) -> None:
        block = _example()
        block.tails = np.array([5, 5, 5, 1], dtype=np.int32)
        out = assert_same(block)
        assert out is not None and out["used"] == 4 and out["unresolved"] == []
        assert 3 in out["closing_row"]

    def test_never_resolves(self) -> None:
        block = _example()
        block.tails = np.array([9, 9, 9, 9], dtype=np.int32)
        out = assert_same(block)
        assert out is not None and out["used"] == 4
        assert out["unresolved"] == [0, 1, 2, 3]
        assert out["closing_row"] == [-1] * 4

    def test_pinned_column_wins_its_row(self) -> None:
        block = _example()
        # Row 1 is vertex 1's own probe: dist 0 to itself, ecc 3.
        block.pins = [(0, 4, 5), (1, 1, 3)]
        out = assert_same(block)
        assert out is not None and out["closing_row"][1] == 1

    def test_pin_after_closing_is_a_point_write(self) -> None:
        block = _example()
        block.tails = np.array([1, 1, 1, 1], dtype=np.int32)
        # Vertex 1 resolves on row 0; its own probe comes on row 1.
        block.pins = [(1, 1, 3)]
        out = assert_same(block)
        assert out is not None and out["closing_row"][1] == 0 and out["used"] > 1

    def test_replay_row_mid_block(self) -> None:
        block = _example()
        # Rows 0 and 2 are fresh probes of outside vertices; row 1 and 3
        # are replays (no pin).
        block.pins = [(0, 4, 5), (2, 5, 4)]
        out = assert_same(block)
        assert out is not None and out["used"] >= 3

    def test_float_tolerance(self) -> None:
        block = _example(np.float64, tolerance=0.5)
        block.rows = block.rows + 0.25
        block.pins = [(1, 1, 3.25)]
        assert_same(block)

    def test_inconsistent_row_raises(self) -> None:
        block = _example()
        block.rows[1, 3] = 50
        with pytest.raises(InvalidParameterError):
            one_by_one(block)
        assert assert_same(block) is None

    def test_pin_outside_window_raises(self) -> None:
        block = _example()
        block.pins = [(1, 5, 7)]  # vertex 5's upper bound is 4
        assert assert_same(block) is None

    @pytest.mark.parametrize(
        "rows, pins",
        [
            # k = 1: a valid column pin, then an inconsistent row.
            ([[3, 9]], [(0, 1, 3)]),
            # k = 1: a valid point pin, then an inconsistent row.
            ([[3, 9]], [(0, 3, 4)]),
            # k > 1: a valid column pin, an inconsistent second row.
            ([[2, 2], [3, 9]], [(0, 1, 3)]),
            # k > 1: column 1 closes on row 0, then a point pin outside
            # vertex 3's bounds.
            ([[3, 3], [3, 3]], [(0, 3, 99)]),
            # k > 1: a pin on column 1 after it closed at 3 is a point
            # write, checked against the column's kept values.
            ([[3, 2], [3, 4]], [(1, 1, 4)]),
        ],
        ids=[
            "k1-column-pin",
            "k1-point-pin",
            "k2-column-pin",
            "k2-point-pin",
            "k2-pin-on-closed-column",
        ],
    )
    def test_raise_changes_nothing(
        self, rows: List[List[int]], pins: List[Pin]
    ) -> None:
        block = Block(
            dtype=np.int32,
            tolerance=0.0,
            lower=np.array([3, 2, 2, 3], dtype=np.int32),
            upper=np.array([3, 4, 5, 6], dtype=np.int32),
            subset=np.array([1, 2]),
            rows=np.array(rows, dtype=np.int32),
            dist_to_z=np.array([0, 1, 3, 0], dtype=np.int32),
            tails=np.full(len(rows), 2, dtype=np.int32),
            pins=pins,
        )
        assert assert_same(block) is None

    def test_empty_block_applies_nothing(self) -> None:
        block = _example()
        state = block.state()
        empty = np.empty(0, dtype=np.int64)
        scan = state.apply_sweep_block(
            empty,
            np.empty((3, 0), dtype=np.int32),
            empty,
            block.tails[:3],
            np.array([0]),
            np.array([4]),
            np.array([5]),
            block.gap_cap,
        )
        assert scan.used == 0 and scan.resolved.tolist() == []
        assert state.lower.tolist() == block.lower.tolist()
        assert state.upper.tolist() == block.upper.tolist()

    def test_rows_must_match_the_bounds_dtype(self) -> None:
        block = _example()
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            block.state().apply_sweep_block(
                block.subset,
                block.rows.astype(np.int64),
                block.dist_to_z[block.subset],
                block.tails,
                empty,
                empty,
                empty,
                block.gap_cap,
            )
