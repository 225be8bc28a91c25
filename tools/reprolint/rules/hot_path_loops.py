"""R4 — hot paths stay vectorised: no nested Python loops.

The "scalable" claim (Figures 8 and 15) holds because frontier
expansion, bound updates, and MS-BFS lane bookkeeping are whole-array
numpy operations.  A nested Python-level ``for`` over ``range(...)`` in
a hot module reintroduces interpreter-speed ``O(n * deg)`` work; so does
materialising per-vertex neighbor lists inside a loop or a
comprehension (``[g.neighbors(v) for v in keep]`` is a loop too).

Deliberate small-graph oracles (e.g. the Table 2 probe replay) carry a
file-level waiver with a justification comment.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from reprolint.astutil import walk_with_loops
from reprolint.config import HOT_PATH_PREFIXES
from reprolint.diagnostics import Diagnostic
from reprolint.engine import ModuleContext
from reprolint.registry import Rule, rule

__all__ = ["HotPathLoopsRule"]


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def _is_neighbors_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "neighbors"
    )


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _per_element_neighbors_calls(tree: ast.AST) -> Set[ast.AST]:
    """``neighbors()`` calls a comprehension evaluates once per element.

    That is every part but the first generator's iterable, which is
    evaluated once.
    """
    calls: Set[ast.AST] = set()
    for comp in ast.walk(tree):
        if not isinstance(comp, _COMPREHENSIONS):
            continue
        parts = (
            [comp.key, comp.value]
            if isinstance(comp, ast.DictComp)
            else [comp.elt]
        )
        for i, gen in enumerate(comp.generators):
            if i:
                parts.append(gen.iter)
            parts.extend(gen.ifs)
        for part in parts:
            calls.update(n for n in ast.walk(part) if _is_neighbors_call(n))
    return calls


@rule
class HotPathLoopsRule(Rule):
    rule_id = "R4"
    rule_name = "hot-path-loops"
    summary = (
        "No Python-level for-over-range nested inside another loop, and "
        "no per-vertex neighbors() calls in loops or comprehensions, in "
        "hot-path modules."
    )
    protects = "Section 7.2 scalability results (vectorised O(m+n) sweeps)"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return any(ctx.is_under(prefix) for prefix in HOT_PATH_PREFIXES)

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        in_comprehension = _per_element_neighbors_calls(ctx.tree)
        for node, loop_depth in walk_with_loops(ctx.tree):
            if node in in_comprehension or (
                loop_depth >= 1 and _is_neighbors_call(node)
            ):
                yield self.diagnostic(
                    ctx,
                    node,
                    "per-vertex neighbors() call inside a loop or "
                    "comprehension in a hot-path module; expand whole "
                    "frontiers via indptr/indices slicing instead",
                )
            elif loop_depth < 1:
                continue
            elif isinstance(node, ast.For) and _is_range_call(node.iter):
                yield self.diagnostic(
                    ctx,
                    node,
                    "for-over-range nested inside another loop in a "
                    "hot-path module; vectorise with numpy array "
                    "operations instead",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                for gen in node.generators:
                    if _is_range_call(gen.iter):
                        yield self.diagnostic(
                            ctx,
                            node,
                            "comprehension over range(...) inside a loop "
                            "in a hot-path module; vectorise instead",
                        )
