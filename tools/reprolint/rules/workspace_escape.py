"""R9 — pooled workspace buffers must not escape their owner.

``BFSEngine`` and ``_MSWorkspace`` own reusable buffers that are
overwritten by every run; any view of them that is *returned*, *yielded*
or *stored* outside the owner outlives its validity window and becomes a
silent-wrong-answer bug (and a data race under the planned parallel
backend).  The rule runs the buffer-provenance dataflow analysis
(:mod:`reprolint.dataflow`) over every shipped function and flags escape
events, with two sanctioned exits:

* the documented producer API (``config.WORKSPACE_PRODUCERS``) — the
  functions whose contract *is* "returns the pooled buffer, copy before
  the next call";
* an explicit ``.copy()`` (which severs provenance), or a justified
  ``# reprolint: disable=R9`` for the rare deliberate loan.

Stores onto a registered workspace-owner instance (the msbfs
buffer-swap idiom) are part of the pooling discipline and are allowed.
"""

from __future__ import annotations

from typing import Iterator

from reprolint.config import (
    SRC_PREFIX,
    WORKSPACE_PRODUCERS,
    WORKSPACE_RULE_EXEMPT,
)
from reprolint.dataflow import (
    FunctionAnalyzer,
    ProjectIndex,
    iter_module_functions,
)
from reprolint.diagnostics import Diagnostic
from reprolint.engine import ModuleContext
from reprolint.registry import Rule, rule

__all__ = ["WorkspaceEscapeRule"]

_VERBS = {
    "return": "returns",
    "yield": "yields",
    "store": "stores",
    "stash": "stashes",
}


@rule
class WorkspaceEscapeRule(Rule):
    rule_id = "R9"
    rule_name = "workspace-escape"
    summary = (
        "Pooled workspace buffers (BFSEngine/_MSWorkspace) may not be "
        "returned, yielded, or stored without an explicit .copy()."
    )
    protects = (
        "pooled-kernel reuse discipline (PR 2): loans are valid only "
        "until the owner's next run"
    )

    def __init__(self) -> None:
        # One index per lint run: cross-module summaries are shared by
        # every file this rule instance scans.
        self._index = ProjectIndex()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.is_under(SRC_PREFIX) and ctx.path not in WORKSPACE_RULE_EXEMPT

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        module = self._index.module_for_source(ctx.path, ctx.tree)
        for qualname, func, _owner_node in iter_module_functions(ctx.tree):
            owner = None
            if "." in qualname:
                owner = module.classes.get(qualname.split(".")[0])
            summary = FunctionAnalyzer(func, owner, module).analyze()
            producer = f"{module.qual}.{qualname}" in WORKSPACE_PRODUCERS
            for event in summary.events:
                if producer and event.kind in ("return", "yield"):
                    continue
                verb = _VERBS.get(event.kind, event.kind)
                yield self.diagnostic(
                    ctx,
                    event.node,
                    f"'{qualname}' {verb} a view of pooled workspace "
                    f"buffer {event.desc}, which the next engine run "
                    f"overwrites; .copy() it or register the function "
                    f"as a documented producer",
                )
