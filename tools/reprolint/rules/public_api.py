"""R5 — every public module declares an accurate ``__all__``.

``__all__`` is the contract the package re-exports are built from; a
stale entry turns ``from repro.x import *`` and the API docs into
runtime errors.  The rule requires a literal list/tuple of strings and
verifies each listed name is actually bound at module top level
(definitions, assignments, imports — including inside top-level
``if``/``try`` blocks).  Names served lazily by a module-level
``__getattr__`` (PEP 562 — the deprecation-alias pattern) count as
bound when they appear as string literals inside that function.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from reprolint.config import PUBLIC_API_EXEMPT, SRC_PREFIX
from reprolint.diagnostics import Diagnostic
from reprolint.engine import ModuleContext
from reprolint.registry import Rule, rule

__all__ = ["PublicApiRule", "module_bindings"]


def module_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module scope, descending into top-level blocks."""
    bound: Set[str] = set()

    def visit_block(statements: "list[ast.stmt]") -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            bound.add(node.id)
            elif isinstance(stmt, (ast.If,)):
                visit_block(stmt.body)
                visit_block(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                visit_block(stmt.body)
                visit_block(stmt.orelse)
                visit_block(stmt.finalbody)
                for handler in stmt.handlers:
                    visit_block(handler.body)
            elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                visit_block(stmt.body)
                if hasattr(stmt, "orelse"):
                    visit_block(stmt.orelse)

    visit_block(tree.body)
    bound.update(_pep562_names(tree))
    return bound


def _pep562_names(tree: ast.Module) -> Set[str]:
    """Names a module-level ``__getattr__`` (PEP 562) can serve.

    Approximated as the string literals mentioned inside the function —
    how a deprecation alias spells the name it forwards
    (``if name == "OldName": ...``).
    """
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__getattr__":
            for node in ast.walk(stmt):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    names.add(node.value)
    return names


def _find_all_assignment(tree: ast.Module) -> Optional[ast.Assign]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return stmt
    return None


@rule
class PublicApiRule(Rule):
    rule_id = "R5"
    rule_name = "public-api"
    summary = (
        "Every public module under src/repro defines a literal __all__ "
        "whose entries all exist at module scope."
    )
    protects = "the package API surface (README / docs import contract)"

    def applies_to(self, ctx: ModuleContext) -> bool:
        if not ctx.is_under(SRC_PREFIX):
            return False
        if ctx.path in PUBLIC_API_EXEMPT:
            return False
        return not ctx.module_name.startswith("_") or ctx.module_name == "__init__.py"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        assignment = _find_all_assignment(ctx.tree)
        if assignment is None:
            yield self.diagnostic(
                ctx,
                ctx.tree,
                "public module does not define __all__",
            )
            return
        value = assignment.value
        if not isinstance(value, (ast.List, ast.Tuple)) or not all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            for elt in value.elts
        ):
            yield self.diagnostic(
                ctx,
                assignment,
                "__all__ must be a literal list/tuple of string names",
            )
            return
        names = [elt.value for elt in value.elts]  # type: ignore[union-attr]
        seen: Set[str] = set()
        bound = module_bindings(ctx.tree)
        for elt, name in zip(value.elts, names):
            if name in seen:
                yield self.diagnostic(
                    ctx, elt, f"duplicate __all__ entry '{name}'"
                )
            seen.add(name)
            if name not in bound:
                yield self.diagnostic(
                    ctx,
                    elt,
                    f"__all__ lists '{name}' but no such name is bound "
                    f"at module scope",
                )
