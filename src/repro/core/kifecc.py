"""kIFECC — the anytime/approximate adaptation (Algorithm 3, Section 4.3).

kIFECC is IFECC with one reference node, terminated after ``k`` nodes of
the FFO have run their BFS.  The returned estimate is the lower-bound
array ``{ecc_lower(v)}`` — line 4 of Algorithm 3.

Because the estimate only ever *tightens* as ``k`` grows (the bound
updates are monotone), kIFECC's accuracy is non-decreasing in ``k`` when
the runs share a prefix, and it converges to the exact ED.  That is the
stability advantage over kBFS that Figure 11 demonstrates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.ifecc import IFECC
from repro.core.result import EccentricityResult
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = ["approximate_eccentricities", "kifecc_sweep"]


#: Estimators for unresolved vertices: Algorithm 3 returns the lower
#: bound; "upper" and "midpoint" are extension variants (the midpoint
#: halves the worst-case absolute error of either bound).
_ESTIMATORS = ("lower", "upper", "midpoint")


def _estimate(
    lower: np.ndarray, upper: np.ndarray, estimator: str
) -> np.ndarray:

    if estimator == "lower":
        return lower.copy()
    # Untouched vertices may still carry the +inf sentinel; fall back to
    # the lower bound there.
    capped = np.minimum(upper.astype(np.int64), 2**30 - 1)
    usable = capped < 2**30 - 1
    if estimator == "upper":
        return np.where(usable, capped, lower).astype(lower.dtype)
    mid = (lower.astype(np.int64) + capped) // 2
    return np.where(usable, mid, lower).astype(lower.dtype)


def approximate_eccentricities(
    graph: Graph,
    k: int,
    estimator: str = "lower",
    counter: Optional[TraversalCounter] = None,
) -> EccentricityResult:
    """Approximate the ED with ``k`` FFO-front BFS runs (Algorithm 3).

    Parameters
    ----------
    graph:
        Connected input graph.
    k:
        Sample size — the number of BFS runs sourced from the front of the
        single reference node's FFO (the reference node's own initial BFS
        is not counted, matching Algorithm 3's loop bounds).  The
        reference is the highest-degree node (Algorithm 3, line 1).
    estimator:
        What to report for unresolved vertices: ``"lower"`` (the paper's
        Algorithm 3), ``"upper"``, or ``"midpoint"`` (extension variants;
        the midpoint halves the worst-case error of either bound).

    Returns
    -------
    EccentricityResult
        ``eccentricities`` holds the chosen estimate; ``exact`` is true
        when the bounds happened to all close within the budget (common
        in practice — Section 7.4 reports that ``|F2|`` BFS runs already
        finish 19 of 20 real graphs).
    """
    if k < 0:
        raise InvalidParameterError("sample size k must be >= 0")
    if estimator not in _ESTIMATORS:
        raise InvalidParameterError(
            f"unknown estimator {estimator!r}; choose from {_ESTIMATORS}"
        )
    engine = IFECC(graph, num_references=1, counter=counter)
    # Budget = 1 reference BFS + k FFO BFS runs.
    result = engine.run_budgeted(max_bfs=k + 1)
    result.eccentricities = _estimate(
        result.lower, result.upper, estimator
    )
    suffix = "" if estimator == "lower" else f", {estimator}"
    result.algorithm = f"kIFECC(k={k}{suffix})"
    return result


def kifecc_sweep(
    graph: Graph,
    sample_sizes: Sequence[int],
    truth: Optional[np.ndarray] = None,
) -> List[Dict[str, object]]:
    """Run kIFECC for several ``k`` values, reusing one engine.

    Because Algorithm 3's runs for increasing ``k`` share their prefix,
    the sweep resumes the same engine instead of restarting — the sweep
    over ``k = 2 .. 128`` of Figure 11 then costs one 128-BFS run total.

    Returns a list of dicts with keys ``k``, ``result`` and (when
    ``truth`` is given) ``accuracy``.
    """
    sizes = sorted(set(int(k) for k in sample_sizes))
    if any(k < 0 for k in sizes):
        raise InvalidParameterError("sample sizes must be >= 0")
    engine = IFECC(graph, num_references=1)
    steps = engine.steps()
    out = []
    watch = Stopwatch()
    done = False
    for k in sizes:
        target = k + 1  # + the reference node's own BFS
        while not done and engine.counter.bfs_runs < target:
            try:
                next(steps)
            except StopIteration:
                done = True
        result = EccentricityResult.from_bounds(
            engine.bounds,
            f"kIFECC(k={k})",
            engine.counter,
            watch.elapsed(),
            reference_nodes=engine.references,
        )
        entry = {"k": k, "result": result}
        if truth is not None:
            entry["accuracy"] = result.accuracy_against(truth)
        out.append(entry)
    return out
