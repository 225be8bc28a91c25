"""The paper's primary contribution: IFECC, kIFECC, and their machinery.

Module map — how the metric-generic solver core fits together:

``oracles``
    The :class:`~repro.core.oracles.DistanceOracle` protocol ("give me
    single-source distances + an eccentricity") and its unweighted
    implementation :class:`~repro.core.oracles.BFSOracle`.  The weighted
    and directed oracles live with their metrics
    (:class:`repro.weighted.dijkstra.DijkstraOracle`,
    :class:`repro.directed.traversal.DirectedBFSOracle`).
``solver``
    :class:`~repro.core.solver.EccentricitySolver` — the single generic
    Algorithm-2 loop (reference selection → FFO → territories →
    Lemma 3.1/3.3 tightening → anytime snapshots), parameterised over an
    oracle.
``bounds``
    Dtype-generic :class:`~repro.core.bounds.BoundState`: Lemma 3.1/3.3
    updates, the tolerance-aware ``bounds_met`` comparison, and the
    directed reverse-distance hook.
``ffo``
    Farthest-first node orders (Section 3.2), metric-generic.
``ifecc`` / ``kifecc``
    The paper's algorithms as thin instantiations of the solver over
    :class:`BFSOracle` (bit-identical to the pre-unification code).
``extremes``
    Radius/diameter-only early termination, generic over oracles.
``reference``
    Reference-selection strategies (degree / random / center).
``framework``
    The Section 3.1 BFS-framework: one pick → probe → Lemma 3.1 loop
    over an oracle, driven by BoundECC, OPEX and the extremes driver.
``probes`` / ``stratify`` / ``result``
    Probe-number analysis, the F1/F2 stratification theory of
    Section 5, and the shared result dataclasses.

High-level entry points:

* :func:`repro.core.ifecc.compute_eccentricities` — exact ED via IFECC;
* :func:`repro.core.kifecc.approximate_eccentricities` — anytime kIFECC;
* :func:`repro.core.stratify.stratify` — the F1/F2 theory of Section 5.
"""

from repro.core.bounds import INFINITE_ECC, BoundState
from repro.core.extremes import (
    ExtremesResult,
    oracle_radius_and_diameter,
    radius_and_diameter,
)
from repro.core.ffo import (
    FarthestFirstOrder,
    compute_ffo,
    compute_ffos,
    farthest_first_order,
)
from repro.core.framework import (
    bound_and_select,
    ffo_order,
    framework_eccentricities,
    largest_gap,
    takes_kosters,
)
from repro.core.ifecc import (
    IFECC,
    compute_eccentricities,
    eccentricities_per_component,
)
from repro.core.kifecc import approximate_eccentricities, kifecc_sweep
from repro.core.oracles import BFSOracle, DistanceOracle
from repro.core.probes import ProbeProfile, probe_numbers
from repro.core.result import EccentricityResult, ProgressSnapshot
from repro.core.solver import EccentricitySolver, Territory
from repro.core.stratify import (
    Stratification,
    stratify,
)

__all__ = [
    "INFINITE_ECC",
    "BoundState",
    "ExtremesResult",
    "radius_and_diameter",
    "oracle_radius_and_diameter",
    "FarthestFirstOrder",
    "compute_ffo",
    "compute_ffos",
    "farthest_first_order",
    "bound_and_select",
    "framework_eccentricities",
    "largest_gap",
    "takes_kosters",
    "ffo_order",
    "IFECC",
    "compute_eccentricities",
    "eccentricities_per_component",
    "approximate_eccentricities",
    "kifecc_sweep",
    "DistanceOracle",
    "BFSOracle",
    "EccentricitySolver",
    "Territory",
    "ProbeProfile",
    "probe_numbers",
    "EccentricityResult",
    "ProgressSnapshot",
    "Stratification",
    "stratify",
]
