"""R1 — CSR graphs are immutable outside their constructors.

Theorem 4.5's ``O(m + n)`` accounting assumes one shared, frozen CSR
structure per graph.  Any code that writes ``graph.indptr`` /
``graph.indices`` (or re-enables numpy write access) can corrupt every
algorithm holding a reference to the same graph.  Only the module in
:data:`reprolint.config.CSR_MUTATION_ALLOWLIST` — ``repro.graph.csr``,
home of the one ``CSR`` type every graph kind is built from — may touch
these arrays.
"""

from __future__ import annotations

import ast
from typing import Iterator

from reprolint import astutil
from reprolint.config import CSR_MUTATION_ALLOWLIST
from reprolint.diagnostics import Diagnostic
from reprolint.engine import ModuleContext
from reprolint.registry import Rule, rule

__all__ = ["CsrImmutableRule"]

_CSR_ATTRS = frozenset({"indptr", "indices", "_indptr", "_indices"})


def _is_csr_attribute(node: ast.expr) -> bool:
    """True for ``<expr>.indptr``-style attributes, or subscripts of them."""
    if isinstance(node, ast.Subscript):
        return _is_csr_attribute(node.value)
    return isinstance(node, ast.Attribute) and node.attr in _CSR_ATTRS


@rule
class CsrImmutableRule(Rule):
    rule_id = "R1"
    rule_name = "csr-immutable"
    summary = (
        "CSR indptr/indices may only be written by repro.graph.csr; "
        "setflags(write=True) is forbidden everywhere else."
    )
    protects = "Theorem 4.5 (shared immutable O(m+n) CSR layout)"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.path not in CSR_MUTATION_ALLOWLIST

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in astutil.assignment_targets(node):
                    if _is_csr_attribute(target):
                        attr = target
                        while isinstance(attr, ast.Subscript):
                            attr = attr.value
                        yield self.diagnostic(
                            ctx,
                            node,
                            f"write to CSR array attribute "
                            f"'.{attr.attr}' outside repro.graph.csr; "
                            f"CSR adjacency is immutable",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "setflags"
                ):
                    for keyword in node.keywords:
                        value = keyword.value
                        is_false = (
                            isinstance(value, ast.Constant)
                            and value.value is False
                        )
                        if keyword.arg == "write" and not is_false:
                            yield self.diagnostic(
                                ctx,
                                node,
                                "setflags(write=...) re-enabling array "
                                "writes outside repro.graph.csr",
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if _is_csr_attribute(target):
                        yield self.diagnostic(
                            ctx,
                            node,
                            "deleting a CSR array attribute outside "
                            "repro.graph.csr",
                        )
