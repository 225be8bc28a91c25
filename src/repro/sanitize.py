"""Runtime buffer-ownership sanitizer for the pooled-kernel architecture.

The static half of the ownership story lives in
``tools/reprolint/dataflow.py`` (rules R9-R11): a dataflow analysis that
proves, at lint time, that no pooled workspace buffer escapes its
producer without a copy.  This module is the *dynamic* half — a guard
layer that re-checks the same discipline while tests run, catching what
static analysis structurally cannot see (``getattr`` tricks, data-driven
aliasing, third-party callbacks).

Design constraints, in priority order:

1. **Zero overhead when off.**  The sanitizer is disabled unless
   ``REPRO_SANITIZE=1`` is exported (or a test arms it via
   :func:`sanitized`).  Disabled, the only cost instrumented code pays
   is one attribute read and one ``is None`` branch per *kernel run* —
   never per level, never per element.  Benchmarks see the production
   code path.
2. **Diagnose, don't just crash.**  Violations raise
   :class:`repro.errors.SanitizerError` carrying the *borrow site*: the
   file, line, and function that took out the loan, plus the
   ``repro.obs`` span that was open at the time — so a stale read
   reported deep inside a solver names the traversal that invalidated
   the buffer.
3. **Loans are read-only.**  A pooled buffer handed to a caller is a
   loan: valid until the owner's next run, never writable.  Owned
   results (``.copy()``, any arithmetic) demote to plain ``ndarray``
   and carry no checks.

The enforcement points:

* :class:`WorkspaceGuard` — one per pooled workspace owner
  (``BFSEngine``, ``_MSWorkspace``).  ``begin_run`` bumps a
  generation counter (invalidating every outstanding loan) and rejects
  re-entry mid-run; ``loan`` wraps a pooled buffer as a
  :class:`GuardedArray` stamped with the current generation.
* :class:`GuardedArray` — an ``ndarray`` view subclass that validates
  its generation on reads (indexing, ufuncs, ``np.*`` functions,
  ``.copy()``/``.astype()``/``.item()``/``.tolist()``) and refuses
  writes outright.  Results of any operation are plain arrays again.
* :func:`freeze` — wraps the immutable CSR arrays so an attempted write
  raises :class:`~repro.errors.SanitizerError` (still a ``ValueError``)
  instead of numpy's bare read-only complaint.

Known limitation: ``np.asarray(loan)`` / ``loan.view(np.ndarray)``
launder the guard silently — an ``ndarray`` subclass cannot intercept
re-viewing.  That escape is exactly what the static rule R9 covers, so
the two layers are checked against complementary blind spots.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from types import FrameType
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from repro.errors import SanitizerError
from repro.obs.trace import get_tracer

__all__ = [
    "enabled",
    "enable",
    "disable",
    "sanitized",
    "guard_if_enabled",
    "assert_owned",
    "freeze",
    "BorrowSite",
    "WorkspaceGuard",
    "GuardedArray",
]

#: One-cell armed flag; mutate only through the accessors below
#: (reprolint R10 guards this via config.SHARED_STATE).
_ENABLED = [os.environ.get("REPRO_SANITIZE", "") not in ("", "0")]

#: Modules whose frames are bookkeeping, not borrowers: the capture
#: walk skips them so a borrow site names the consumer of the loan.
_INTERNAL_MODULES = frozenset({__name__, "repro.graph.engine"})

#: ``np.*`` functions that write into their first argument; they bypass
#: ``__setitem__`` so the dispatch hook checks them explicitly.
_WRITING_FUNCTIONS = frozenset(
    {"copyto", "put", "place", "putmask", "put_along_axis"}
)


def enabled() -> bool:
    """Whether the sanitizer is armed for newly created workspaces."""
    return _ENABLED[0]


def enable() -> None:
    """Arm the sanitizer (workspaces created from now on are guarded)."""
    _ENABLED[0] = True


def disable() -> None:
    """Disarm the sanitizer; existing guards keep checking."""
    _ENABLED[0] = False


@contextmanager
def sanitized() -> Iterator[None]:
    """Arm the sanitizer for a ``with`` block (test fixture helper).

    Only workspaces *constructed inside* the block are guarded — cached
    engines built beforehand stay unguarded, so tests should build
    their graphs and engines within the context (or export
    ``REPRO_SANITIZE=1`` for the whole session).
    """
    previous = _ENABLED[0]
    _ENABLED[0] = True
    try:
        yield
    finally:
        _ENABLED[0] = previous


class BorrowSite:
    """Where a loan was taken out: caller frame plus the live obs span."""

    __slots__ = ("function", "filename", "lineno", "span_seq")

    def __init__(
        self,
        function: str,
        filename: str,
        lineno: int,
        span_seq: Optional[int],
    ) -> None:
        self.function = function
        self.filename = filename
        self.lineno = lineno
        self.span_seq = span_seq

    @classmethod
    def capture(cls) -> "BorrowSite":
        """Snapshot the first frame outside the sanitizer/kernel modules."""
        frame: Optional[FrameType] = sys._getframe(1)
        while (
            frame is not None
            and frame.f_globals.get("__name__") in _INTERNAL_MODULES
        ):
            frame = frame.f_back
        if frame is None:  # borrowed straight from kernel internals
            function, filename, lineno = "<unknown>", "<unknown>", 0
        else:
            function = frame.f_code.co_name
            filename = frame.f_code.co_filename
            lineno = frame.f_lineno
        return cls(
            function,
            filename,
            lineno,
            get_tracer().active_span_seq(),
        )

    def describe(self) -> str:
        where = f"{self.function} ({self.filename}:{self.lineno})"
        if self.span_seq is not None:
            where += f" [obs span seq={self.span_seq}]"
        return where


class WorkspaceGuard:
    """Generation counter and run bookkeeping for one pooled workspace.

    ``begin_run``/``end_run`` bracket every kernel run on the owner's
    buffers; each ``begin_run`` increments :attr:`generation`, which
    invalidates every loan stamped with an earlier value.  Re-entering
    while a run is open raises — a pooled kernel is not reentrant, by
    construction.
    """

    __slots__ = ("owner", "generation", "_running", "_run_site")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.generation = 0
        self._running = False
        self._run_site: Optional[BorrowSite] = None

    def begin_run(self) -> None:
        if self._running:
            prior = (
                self._run_site.describe()
                if self._run_site is not None
                else "<unknown>"
            )
            raise SanitizerError(
                f"re-entered {self.owner} while a run started at {prior} "
                f"is still in progress; pooled kernels are not reentrant"
            )
        self._running = True
        self._run_site = BorrowSite.capture()
        self.generation += 1

    def end_run(self) -> None:
        self._running = False

    # reprolint: disable=R11 (only the view's flag changes; base untouched)
    def loan(self, array: np.ndarray, label: str) -> np.ndarray:
        """A read-only :class:`GuardedArray` view valid this generation.

        The view carries the borrow site captured *now*, so a stale
        read later can report who borrowed the buffer and under which
        ``repro.obs`` span.
        """
        view = array.view(GuardedArray)
        view._repro_guard = self
        view._repro_generation = self.generation
        view._repro_label = label
        view._repro_site = BorrowSite.capture()
        view.flags.writeable = False
        return view


def guard_if_enabled(owner: str) -> Optional[WorkspaceGuard]:
    """A :class:`WorkspaceGuard` when armed, else ``None``.

    The ``None`` is what makes the disabled path free: instrumented
    kernels hold the result and test ``is None`` once per run.
    """
    return WorkspaceGuard(owner) if enabled() else None


def _demote(value: Any) -> Any:
    """Strip guard views (recursively through containers) for dispatch."""
    if isinstance(value, GuardedArray):
        return value.view(np.ndarray)
    if isinstance(value, (list, tuple)):
        return type(value)(_demote(item) for item in value)
    return value


class GuardedArray(np.ndarray):
    """A loaned (or frozen) view that validates every access.

    Reads check that the loan's generation still matches its guard's;
    writes raise unconditionally.  Any derived value — a copy, a ufunc
    result, an ``np.*`` call — is demoted to a plain ``ndarray``, so
    the guard never leaks into owned data and the checking overhead
    stays confined to direct touches of the pooled buffer.
    """

    _repro_guard: Optional[WorkspaceGuard]
    _repro_generation: int
    _repro_label: str
    _repro_site: Optional[BorrowSite]
    _repro_frozen: Optional[str]

    def __array_finalize__(self, obj: Optional[np.ndarray]) -> None:
        if self.base is not None and obj is not None:
            # A view of a guarded array is the same loan.
            self._repro_guard = getattr(obj, "_repro_guard", None)
            self._repro_generation = getattr(obj, "_repro_generation", 0)
            self._repro_label = getattr(obj, "_repro_label", "<buffer>")
            self._repro_site = getattr(obj, "_repro_site", None)
            self._repro_frozen = getattr(obj, "_repro_frozen", None)
        else:
            # Fresh allocation (copy, new-from-template): owned data.
            self._repro_guard = None
            self._repro_generation = 0
            self._repro_label = "<buffer>"
            self._repro_site = None
            self._repro_frozen = None

    # -- violation reporting -------------------------------------------
    def _assert_fresh(self) -> None:
        guard = self._repro_guard
        if guard is None or self._repro_generation == guard.generation:
            return
        borrowed = (
            self._repro_site.describe()
            if self._repro_site is not None
            else "<unknown>"
        )
        raise SanitizerError(
            f"stale read of {self._repro_label}: borrowed at {borrowed} "
            f"(generation {self._repro_generation}), but {guard.owner} "
            f"has since run {guard.generation - self._repro_generation} "
            f"more time(s) and overwritten the pooled buffer; .copy() "
            f"the loan before the next run if you need to keep it"
        )

    def _raise_write(self) -> None:
        if self._repro_frozen is not None:
            raise SanitizerError(
                f"write to frozen array {self._repro_frozen}: CSR arrays "
                f"are immutable (reprolint R1 / Theorem 4.5's shared "
                f"layout); build a new graph instead"
            )
        borrowed = (
            self._repro_site.describe()
            if self._repro_site is not None
            else "<unknown>"
        )
        raise SanitizerError(
            f"write through loaned workspace view {self._repro_label} "
            f"(borrowed at {borrowed}): loans are read-only; .copy() "
            f"first if you need a scratch vector"
        )

    def _is_guarded(self) -> bool:
        return self._repro_guard is not None or self._repro_frozen is not None

    # -- read interception ---------------------------------------------
    def __getitem__(self, key: Any) -> Any:
        self._assert_fresh()
        return super().__getitem__(key)

    def __iter__(self) -> Iterator[Any]:
        self._assert_fresh()
        return super().__iter__()

    def copy(self, order: str = "C") -> np.ndarray:
        self._assert_fresh()
        return np.ndarray.copy(self.view(np.ndarray), order)

    def astype(self, *args: Any, **kwargs: Any) -> np.ndarray:
        self._assert_fresh()
        return self.view(np.ndarray).astype(*args, **kwargs)

    def item(self, *args: Any) -> Any:
        self._assert_fresh()
        return super().item(*args)

    def tolist(self) -> Any:
        self._assert_fresh()
        return super().tolist()

    def tobytes(self, order: str = "C") -> bytes:
        self._assert_fresh()
        return super().tobytes(order=order)

    # -- write interception --------------------------------------------
    def __setitem__(self, key: Any, value: Any) -> None:
        if self._is_guarded():
            self._raise_write()
        super().__setitem__(key, value)

    def fill(self, value: Any) -> None:
        if self._is_guarded():
            self._raise_write()
        super().fill(value)

    # -- dispatch hooks -------------------------------------------------
    def __array_ufunc__(
        self, ufunc: Any, method: str, *inputs: Any, **kwargs: Any
    ) -> Any:
        for operand in inputs:
            if isinstance(operand, GuardedArray):
                operand._assert_fresh()
        out = kwargs.get("out")
        if out is not None:
            for target in out:
                if isinstance(target, GuardedArray) and target._is_guarded():
                    target._raise_write()
            kwargs["out"] = tuple(_demote(target) for target in out)
        return getattr(ufunc, method)(*_demote(tuple(inputs)), **kwargs)

    def __array_function__(
        self, func: Any, types: Any, args: Tuple[Any, ...], kwargs: Any
    ) -> Any:
        if (
            getattr(func, "__name__", "") in _WRITING_FUNCTIONS
            and args
            and isinstance(args[0], GuardedArray)
            and args[0]._is_guarded()
        ):
            args[0]._raise_write()
        self._assert_fresh()
        return func(
            *_demote(tuple(args)),
            **{key: _demote(value) for key, value in kwargs.items()},
        )

    def __repr__(self) -> str:
        # Never raise from repr (debuggers walk stale locals freely).
        guard = self._repro_guard
        if guard is not None and self._repro_generation != guard.generation:
            return (
                f"<stale GuardedArray {self._repro_label} "
                f"gen={self._repro_generation} "
                f"owner-gen={guard.generation}>"
            )
        return super().__repr__()


def assert_owned(array: np.ndarray) -> np.ndarray:
    """Assert ``array`` is caller-owned (not a live workspace loan).

    Every vector the oracle protocol hands the solver is caller-owned:
    ``source_probe``'s rows are retained by FFOs and territories, and
    ``sweep_batch`` blocks and memoised rows are written or kept.
    Producers route such results through this so the promise is
    enforced, not just documented.  Returns ``array`` unchanged.
    """
    if isinstance(array, GuardedArray) and array._repro_guard is not None:
        borrowed = (
            array._repro_site.describe()
            if array._repro_site is not None
            else "<unknown>"
        )
        raise SanitizerError(
            f"expected an owned array but received a live loan of "
            f"{array._repro_label} (borrowed at {borrowed}); the "
            f"producer must .copy() before handing over ownership"
        )
    return array


def freeze(array: np.ndarray, label: str) -> np.ndarray:
    """Mark ``array`` immutable; guarded with a diagnosis when armed.

    Always clears the numpy writeable flag (the production behaviour —
    free).  When the sanitizer is armed the returned view additionally
    upgrades write attempts from numpy's bare ``ValueError`` to a
    :class:`~repro.errors.SanitizerError` naming ``label`` and the
    construction site.

    :mutates array: its writeable flag is cleared in place — freezing
        the caller's array is the entire point.
    """
    array.setflags(write=False)
    if not enabled():
        return array
    view = array.view(GuardedArray)
    view._repro_frozen = label
    view._repro_label = label
    view._repro_site = BorrowSite.capture()
    return view
