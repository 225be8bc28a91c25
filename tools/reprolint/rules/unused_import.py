"""R12 — shipped code imports only names it reads.

An import whose bound name is never read is dead weight that outlives
the code it once served: it keeps a module dependency alive, and a
reader takes it for a use that is not there.  The rule flags every
import under ``src/repro/`` whose bound name is neither read anywhere
in the module (as a name, an attribute root, or inside a string
annotation such as ``Optional["TraversalCounter"]``) nor listed in
``__all__`` (a re-export).  Reads are collected module-wide, so an
import inside one function that only another function reads is not
flagged.  ``from __future__`` imports and ``*`` imports are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from reprolint.config import SRC_PREFIX
from reprolint.diagnostics import Diagnostic
from reprolint.engine import ModuleContext
from reprolint.registry import Rule, rule
from reprolint.rules.public_api import _find_all_assignment

__all__ = ["UnusedImportRule"]


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]:
                if arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> Set[str]:
    """Names the module reads: loaded names, plus the names inside
    string annotations (forward references)."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= _read_names(parsed)
    return names


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of the module-level ``__all__``."""
    assignment = _find_all_assignment(tree)
    if assignment is None:
        return set()
    return {
        node.value
        for node in ast.walk(assignment.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@rule
class UnusedImportRule(Rule):
    rule_id = "R12"
    rule_name = "unused-import"
    summary = (
        "Every name src/repro/ imports is read in its module or listed "
        "in __all__."
    )
    protects = "the dependency graph the modules declare (no dead imports)"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.is_under(SRC_PREFIX)

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        used = _read_names(ctx.tree) | _exported(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"'{bound}' is imported but never read; delete the "
                        f"import or list the name in __all__",
                    )
