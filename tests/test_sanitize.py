"""Unit tests for the runtime workspace sanitizer (:mod:`repro.sanitize`).

Covers the guard primitives (borrow/release tokens, generation bumps,
reentrancy), the :class:`GuardedArray` read/write interception, the
frozen-CSR upgrade path, and the engine/msbfs wiring — including the
regression shapes the sanitizer exists to catch: a retained pooled
distance vector read after the next run, and a missing ``.copy()``
before memoisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitize
from repro.errors import ReproError, SanitizerError
from repro.graph.csr import Graph
from repro.graph.engine import BFSEngine
from repro.graph.msengine import MSBFSEngine, _MSWorkspace
from repro.obs.trace import MemorySink, tracing


def chordal_square() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


class TestArming:
    def test_disabled_by_default_in_suite(self):
        # The suite runs unarmed unless REPRO_SANITIZE=1 is exported;
        # either way the toggle helpers must round-trip.
        before = sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()
        (sanitize.enable if before else sanitize.disable)()

    def test_context_manager_restores(self):
        before = sanitize.enabled()
        with sanitize.sanitized():
            assert sanitize.enabled()
        assert sanitize.enabled() == before

    def test_context_manager_restores_on_error(self):
        before = sanitize.enabled()
        with pytest.raises(RuntimeError):
            with sanitize.sanitized():
                raise RuntimeError("boom")
        assert sanitize.enabled() == before

    def test_guard_if_enabled(self, sanitizer):
        assert isinstance(
            sanitize.guard_if_enabled("x"), sanitize.WorkspaceGuard
        )

    def test_guard_if_disabled_is_none(self):
        with sanitize.sanitized():
            pass  # ensure at least one toggle has happened
        if not sanitize.enabled():
            assert sanitize.guard_if_enabled("x") is None

    def test_error_hierarchy(self):
        # ValueError so read-only-flag tests keep passing armed;
        # ReproError so `except ReproError` catches library failures.
        assert issubclass(SanitizerError, ValueError)
        assert issubclass(SanitizerError, ReproError)


class TestWorkspaceGuard:
    def test_generation_bumps_per_run(self):
        guard = sanitize.WorkspaceGuard("T")
        g0 = guard.generation
        guard.begin_run()
        guard.end_run()
        guard.begin_run()
        guard.end_run()
        assert guard.generation == g0 + 2

    def test_reentrancy_raises(self):
        guard = sanitize.WorkspaceGuard("T")
        guard.begin_run()
        with pytest.raises(SanitizerError, match="not reentrant"):
            guard.begin_run()
        guard.end_run()
        guard.begin_run()  # released guard can run again
        guard.end_run()

    def test_loan_is_valid_within_generation(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(5, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        assert int(loan.max()) == 4
        assert loan[2] == 2
        assert loan.tolist() == [0, 1, 2, 3, 4]

    def test_loan_stale_after_next_run(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(5, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        guard.begin_run()
        guard.end_run()
        with pytest.raises(SanitizerError, match="stale read of T.buf"):
            loan.max()
        with pytest.raises(SanitizerError):
            loan[0]
        with pytest.raises(SanitizerError):
            np.argmax(loan)
        with pytest.raises(SanitizerError):
            loan.copy()

    def test_loan_is_read_only(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.zeros(4, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        with pytest.raises(SanitizerError, match="read-only"):
            loan[0] = 1
        with pytest.raises(SanitizerError):
            loan.fill(7)
        with pytest.raises(SanitizerError):
            np.minimum(loan, 0, out=loan)
        assert buf[0] == 0  # the pooled base was never touched

    def test_copy_demotes_to_plain_owned_array(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(4, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        owned = guard.loan(buf, "T.buf").copy()
        assert type(owned) is np.ndarray
        guard.begin_run()
        guard.end_run()
        assert int(owned.max()) == 3  # survives the next run
        owned[0] = 9  # and is writable

    def test_arithmetic_results_are_owned(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(4, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        derived = loan + 1
        guard.begin_run()
        guard.end_run()
        assert derived.tolist() == [1, 2, 3, 4]

    def test_slice_of_loan_is_same_loan(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(6, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        tail = guard.loan(buf, "T.buf")[2:]
        guard.begin_run()
        guard.end_run()
        with pytest.raises(SanitizerError, match="stale"):
            tail.max()

    def test_stale_repr_never_raises(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(3, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        guard.begin_run()
        guard.end_run()
        assert "stale" in repr(loan)

    def test_error_names_the_borrow_site(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.zeros(3, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        guard.begin_run()
        guard.end_run()
        with pytest.raises(SanitizerError) as excinfo:
            loan.sum()
        message = str(excinfo.value)
        assert "test_error_names_the_borrow_site" in message
        assert "test_sanitize.py" in message

    def test_borrow_site_carries_obs_span(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.zeros(3, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        with tracing(MemorySink()) as tracer:
            with tracer.span("probe"):
                loan = guard.loan(buf, "T.buf")
        site = loan._repro_site
        assert site is not None and site.span_seq is not None
        assert f"span seq={site.span_seq}" in site.describe()


class TestAssertOwned:
    def test_plain_array_passes(self):
        arr = np.arange(3)
        assert sanitize.assert_owned(arr) is arr

    def test_copy_of_loan_passes(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(3, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        owned = guard.loan(buf, "T.buf").copy()
        assert sanitize.assert_owned(owned) is owned

    def test_live_loan_rejected(self):
        guard = sanitize.WorkspaceGuard("T")
        buf = np.arange(3, dtype=np.int32)
        guard.begin_run()
        guard.end_run()
        loan = guard.loan(buf, "T.buf")
        with pytest.raises(SanitizerError, match="live loan"):
            sanitize.assert_owned(loan)


class TestFreeze:
    def test_unarmed_freeze_is_plain_read_only(self):
        if sanitize.enabled():
            pytest.skip("suite armed via REPRO_SANITIZE")
        arr = np.arange(3)
        frozen = sanitize.freeze(arr, "x")
        assert frozen is arr
        assert not frozen.flags.writeable

    def test_armed_freeze_raises_sanitizer_error(self, sanitizer):
        frozen = sanitize.freeze(np.arange(3), "Fixture.arr")
        with pytest.raises(SanitizerError, match="Fixture.arr"):
            frozen[0] = 5
        with pytest.raises(ValueError):  # the compatible supertype
            frozen[0] = 5

    def test_armed_csr_write_diagnosed(self, sanitizer):
        g = chordal_square()
        with pytest.raises(SanitizerError, match="CSR.indices"):
            g.indices[0] = 5  # reprolint: disable=R1 (asserting the frozen guard traps the write)
        with pytest.raises(SanitizerError, match="immutable"):
            g.indptr[0] = 1  # reprolint: disable=R1 (asserting the frozen guard traps the write)

    def test_armed_graph_still_traversable(self, sanitizer):
        g = chordal_square()
        engine = BFSEngine(g)
        assert int(engine.run(0).max()) == 1


class TestEngineWiring:
    def test_unarmed_run_returns_plain_pooled_buffer(self):
        if sanitize.enabled():
            pytest.skip("suite armed via REPRO_SANITIZE")
        engine = BFSEngine(chordal_square())
        d1 = engine.run(0)
        assert type(d1) is np.ndarray
        assert engine.run(1) is d1  # pooling intact

    def test_armed_run_returns_guarded_loan(self, sanitizer):
        engine = BFSEngine(chordal_square())
        dist = engine.run(0)
        assert isinstance(dist, sanitize.GuardedArray)
        assert dist.tolist() == [0, 1, 1, 1]

    def test_stale_distance_vector_read_raises(self, sanitizer):
        engine = BFSEngine(chordal_square())
        dist = engine.run(0)
        engine.run(1)  # overwrites the pooled buffer
        with pytest.raises(SanitizerError, match="BFSEngine._dist"):
            dist.max()

    def test_copy_before_next_run_is_safe(self, sanitizer):
        engine = BFSEngine(chordal_square())
        kept = engine.run(0).copy()
        engine.run(1)
        assert kept.tolist() == [0, 1, 1, 1]

    def test_nearest_source_run_loans_dist(self, sanitizer):
        engine = BFSEngine(chordal_square())
        dist = engine.run([0, 2])
        assert isinstance(dist, sanitize.GuardedArray)
        assert dist.tolist() == [0, 1, 0, 1]
        engine.run(0)
        with pytest.raises(SanitizerError):
            dist.max()

    def test_reentrant_run_raises(self, sanitizer):
        engine = BFSEngine(chordal_square())
        guard = engine._guard
        assert guard is not None
        guard.begin_run()
        try:
            with pytest.raises(SanitizerError, match="not reentrant"):
                engine.run(0)
        finally:
            guard.end_run()
        assert int(engine.run(0).max()) == 1  # recovered

    def test_missing_copy_memoisation_bug_is_caught(self, sanitizer):
        # The regression shape R9 guards against statically, replayed
        # dynamically: memoise the pooled vector without .copy() and
        # read it after later runs — silent wrong answers unarmed, a
        # diagnosed SanitizerError armed.
        engine = BFSEngine(chordal_square())
        memo = {}
        for source in (0, 1):
            memo[source] = engine.run(source)  # BUG: no .copy()
        with pytest.raises(SanitizerError, match="stale read"):
            memo[0].max()

    def test_answers_match_unarmed(self, sanitizer):
        g = chordal_square()
        armed = BFSEngine(g).run(0).copy()
        with np.errstate():
            sanitize.disable()
            try:
                plain = BFSEngine(g).run(0)
            finally:
                sanitize.enable()
        np.testing.assert_array_equal(armed, plain)


class TestMsbfsWiring:
    def test_lane_workspace_alias_constructs_guarded(self, sanitizer):
        # The lane workspace builds the MS engine's pooled bitmaps and
        # arms their guard.
        work = _MSWorkspace(chordal_square().num_vertices)
        assert work.guard is not None
        assert work.seen.shape == (4,)

    def test_armed_batch_guard_reentrancy(self, sanitizer):
        g = chordal_square()
        engine = MSBFSEngine(g)
        work = engine._work
        assert work.guard is not None
        work.guard.begin_run()
        try:
            with pytest.raises(SanitizerError, match="not reentrant"):
                engine.run_batch(np.asarray([0], dtype=np.int64))
        finally:
            work.guard.end_run()

    def test_armed_batch_matches_unarmed(self, sanitizer):
        g = chordal_square()
        sources = np.asarray([0, 1, 2, 3], dtype=np.int64)
        armed = MSBFSEngine(g).run_batch(sources)
        sanitize.disable()
        try:
            plain_engine = MSBFSEngine(g)
            plain = plain_engine.run_batch(sources)
            assert plain_engine._work.guard is None
        finally:
            sanitize.enable()
        np.testing.assert_array_equal(armed, plain)
