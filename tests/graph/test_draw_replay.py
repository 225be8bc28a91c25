"""The generators' draw replayer against numpy's own ``Generator``.

``repro.graph.generators`` decodes its draws from raw PCG64 words
(:class:`~repro.graph.generators._DrawReplayer`), and its hot loops
inline that decoding.  Both must reproduce ``np.random.default_rng``
draw for draw: the replayer's methods over random interleavings of
``integers(0, high)`` and ``random()``, and each sequential generator
against its per-call reference in ``tests/helpers.py``.  Patching
``_RAW_CHUNK`` down to 1 and 3 words puts a chunk boundary between
(nearly) every pair of draws.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.generators import (
    _DrawReplayer,
    barabasi_albert,
    copying_model,
    watts_strogatz,
)

from helpers import (
    per_call_barabasi_albert,
    per_call_copying_model,
    per_call_watts_strogatz,
)

#: ``integers(0, high)`` bounds: no draw (1), tiny, around 2**20, and
#: near 2**32, where Lemire's method rejects up to half of its draws.
BOUNDS = (
    1, 2, 3, 7, 100,
    2**20 - 3, 2**20, 2**20 + 7,
    2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32 - 1, 2**32,
)

CHUNKS = (1, 3, generators._RAW_CHUNK)


class CountingReplayer(_DrawReplayer):
    """The replayer behind numpy's ``integers(low, high)`` signature,
    counting its bounded draws and the 32-bit draws they took."""

    __slots__ = ("draws", "uint32s")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = 0
        self.uint32s = 0

    def next_uint32(self) -> int:
        self.uint32s += 1
        return super().next_uint32()

    def integers(self, low: int, high: int) -> int:  # type: ignore[override]
        assert low == 0
        self.draws += high > 1
        return super().integers(high)

    @property
    def rejections(self) -> int:
        return self.uint32s - self.draws


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c}")
def chunk(request, monkeypatch) -> int:
    monkeypatch.setattr(generators, "_RAW_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("seed", [0, 1, 116, 2**40 + 3])
def test_replayer_matches_generator(chunk: int, seed: int) -> None:
    script = random.Random(seed)
    rng = np.random.default_rng(seed)
    replay = CountingReplayer(seed)
    for step in range(3000):
        if script.random() < 0.3:
            assert replay.random() == rng.random(), step
        else:
            high = script.choice(BOUNDS)
            assert replay.integers(0, high) == rng.integers(0, high), (step, high)
    # The script crossed both of Lemire's branches.
    assert replay.rejections > 0
    assert replay.draws > replay.rejections


def test_bound_one_draws_nothing() -> None:
    rng = np.random.default_rng(5)
    replay = _DrawReplayer(5)
    assert replay.integers(1) == rng.integers(0, 1) == 0
    assert replay.integers(9) == rng.integers(0, 9)
    assert replay.integers(1) == rng.integers(0, 1) == 0
    assert replay.integers(9) == rng.integers(0, 9)


def test_random_leaves_the_buffered_half() -> None:
    rng = np.random.default_rng(8)
    replay = _DrawReplayer(8)
    for high in (10, 10, 10):
        assert replay.integers(high) == rng.integers(0, high)
        assert replay.random() == rng.random()


# ----------------------------------------------------------------------
# The generators' inlined decoding against their per-call references
# ----------------------------------------------------------------------
BA_GRID = [(200, 1, 2), (300, 3, 1), (1000, 5, 9), (2000, 4, 7)]
# One link per page copies from prototypes that have a single link,
# where integers(0, 1) draws nothing.
COPY_GRID = [
    (300, 1, 0.8, 6), (300, 2, 0.0, 4), (300, 3, 1.0, 5), (400, 4, 0.7, 3),
    (2000, 8, 0.65, 120),
]
WS_GRID = [(50, 4, 1.0, 7), (200, 6, 0.3, 6), (500, 8, 0.5, 11)]


@pytest.mark.parametrize("n, attach, seed", BA_GRID)
def test_barabasi_albert_matches_per_call(chunk, n, attach, seed) -> None:
    expected = per_call_barabasi_albert(n, attach, np.random.default_rng(seed))
    assert barabasi_albert(n, attach, seed) == expected


@pytest.mark.parametrize("n, degree, p, seed", COPY_GRID)
def test_copying_model_matches_per_call(chunk, n, degree, p, seed) -> None:
    expected = per_call_copying_model(n, degree, p, np.random.default_rng(seed))
    assert copying_model(n, degree, p, seed) == expected


@pytest.mark.parametrize("n, k, beta, seed", WS_GRID)
def test_watts_strogatz_matches_per_call(chunk, n, k, beta, seed) -> None:
    expected = per_call_watts_strogatz(n, k, beta, np.random.default_rng(seed))
    assert watts_strogatz(n, k, beta, seed) == expected


#: One build per inlined Lemire loop that draws exactly one rejected
#: candidate in it: ``(generator, per-call reference, args, seed)``.
REJECTING = {
    # The TWIT stand-in's core at the end-to-end scale 0.75.
    "ba-twit-core": (barabasi_albert, per_call_barabasi_albert, (10500, 8), 116),
    "copy-prototype": (copying_model, per_call_copying_model, (8000, 8, 0.65), 175),
    "copy-link": (copying_model, per_call_copying_model, (5000, 8, 0.65), 417),
}


@pytest.mark.parametrize("case", sorted(REJECTING))
def test_rejection_path_in_a_real_build(case: str) -> None:
    generator, per_call, args, seed = REJECTING[case]
    replay = CountingReplayer(seed)
    expected = per_call(*args, replay)
    assert replay.rejections == 1
    assert expected == per_call(*args, np.random.default_rng(seed))
    assert generator(*args, seed) == expected
