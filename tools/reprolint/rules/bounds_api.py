"""R2 — eccentricity bounds change only through the BoundState API.

Lemma 3.1 and Lemma 3.3 updates are monotone: lower bounds only rise,
upper bounds only fall, and ``lower <= upper`` always holds.
:class:`repro.core.bounds.BoundState` re-checks that invariant in each
of its three writers (``set_exact``, ``apply_lemma31``,
``apply_sweep_block``); raw writes to ``state.lower`` / ``state.upper`` (or to arrays
named ``ecc_lower`` / ``ecc_upper``) bypass the check and can turn an
inconsistent distance vector into a silently wrong eccentricity.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from reprolint import astutil
from reprolint.config import BOUNDS_MODULE, BOUNDS_PROTECTED_MODULES
from reprolint.diagnostics import Diagnostic
from reprolint.engine import ModuleContext
from reprolint.registry import Rule, rule

__all__ = ["BoundsApiRule"]

_BOUND_ATTRS = frozenset({"lower", "upper"})
_BOUND_NAMES = frozenset({"ecc_lower", "ecc_upper"})
#: In the solver-core modules (BOUNDS_PROTECTED_MODULES) even bare
#: ``lower`` / ``upper`` locals are treated as bound arrays.
_PROTECTED_BARE_NAMES = _BOUND_NAMES | _BOUND_ATTRS


def _bound_target(node: ast.expr, strict_names: bool) -> Optional[str]:
    """Describe the written bound array, or ``None`` if not one."""
    if isinstance(node, ast.Subscript):
        return _bound_target(node.value, strict_names)
    if isinstance(node, ast.Attribute) and node.attr in _BOUND_ATTRS:
        return f".{node.attr}"
    names = _PROTECTED_BARE_NAMES if strict_names else _BOUND_NAMES
    if isinstance(node, ast.Name) and node.id in names:
        return node.id
    return None


@rule
class BoundsApiRule(Rule):
    rule_id = "R2"
    rule_name = "bounds-api"
    summary = (
        "ecc_lower/ecc_upper arrays are mutated only through the "
        "BoundState methods in core/bounds.py."
    )
    protects = "Lemma 3.1 / Lemma 3.3 (monotone, consistent bound updates)"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.path != BOUNDS_MODULE

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        strict_names = ctx.path in BOUNDS_PROTECTED_MODULES
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            # Class-level field declarations (`lower: np.ndarray`) inside a
            # dataclass body are Name targets, not bound-array writes.
            for target in astutil.assignment_targets(node):
                described = _bound_target(target, strict_names)
                if described is None:
                    continue
                if isinstance(target, ast.Name) and isinstance(
                    node, ast.AnnAssign
                ):
                    continue
                yield self.diagnostic(
                    ctx,
                    node,
                    f"direct write to bound array '{described}' outside "
                    f"BoundState; use one of its three writers, set_exact, "
                    f"apply_lemma31 or apply_sweep_block",
                )
