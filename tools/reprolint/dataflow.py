"""Buffer-provenance dataflow analysis over the intra-package call graph.

The pooled-workspace architecture (``BFSEngine``, ``_MSWorkspace``)
trades allocation cost for aliasing risk: a pooled buffer that *escapes*
its engine — returned as a view, stashed on an object, read after the
next run overwrites it — is a silent-wrong-answer bug today and a data
race once the parallel backend lands.  This module gives reprolint the
machinery to reason about that statically:

* a small **provenance lattice** over AST expressions — each value is
  summarised by the set of things it may alias: a pooled workspace
  buffer, an engine/workspace instance, a parameter, an attribute of a
  parameter, or a module global;
* per-function :class:`FunctionSummary` records — which parameters the
  function mutates in place, what its return value aliases, and the
  escape :class:`Event` s observed in its body;
* a lazy :class:`ProjectIndex` that resolves ``repro.x.y`` imports to
  files under ``src/`` and propagates summaries across the intra-package
  call graph (with a cycle guard), so ``dist = engine.run(s)`` is known
  to alias ``BFSEngine._dist`` from any module.

The analysis is deliberately *approximate* (flow-sensitive straight-line
interpretation, two passes to stabilise loop-carried bindings, no branch
joins beyond ``if``-expressions) but errs on the side the rules need:
copies (``.copy()``, ``np.array``, ``astype`` without ``copy=False``,
fancy/boolean indexing) sever provenance; views (basic slices,
``.view``/``.reshape``, ``np.asarray``) preserve it.

Rules R9/R10/R11 are built on top of this module; it has no rule logic
of its own and emits no diagnostics.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from reprolint.config import (
    POOLED_BUFFER_ATTRS,
    SRC_ROOT,
)

__all__ = [
    "Prov",
    "Event",
    "FunctionSummary",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "FunctionAnalyzer",
    "parse_mutates",
    "module_qualname",
    "iter_module_functions",
    "annotation_names",
]

# ---------------------------------------------------------------------------
# Provenance tokens
# ---------------------------------------------------------------------------
# A provenance is a frozenset of tokens; each token is a tuple whose first
# element is the kind:
#   ("workspace", desc)        value may alias a pooled workspace buffer
#   ("instance", qualclass)    value is an instance of an intra-package class
#   ("param", name)            value aliases parameter `name` itself
#   ("paramattr", name, attr)  value aliases `name.attr` of a parameter
#   ("global", name)           value is/aliases a module-level binding
#   ("carrier", desc)          object constructed with a workspace argument
Token = Tuple[str, ...]
Prov = FrozenSet[Token]

EMPTY: Prov = frozenset()

#: ndarray methods that mutate the receiver in place.  ``setflags`` is
#: deliberately absent: it flips metadata, not data, and R1 already
#: polices the CSR freeze sites.
MUTATING_ARRAY_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "itemset", "byteswap"}
)

#: Container methods that both mutate the receiver and stash the argument.
CONTAINER_STASH_METHODS = frozenset(
    {"append", "add", "insert", "extend", "update", "setdefault"}
)

#: ndarray methods returning a view of the receiver.
VIEW_METHODS = frozenset(
    {"view", "reshape", "ravel", "squeeze", "transpose", "swapaxes"}
)

#: ``np.<func>(x)`` calls that may return ``x`` or a view of it.
VIEW_FUNCS = frozenset(
    {"asarray", "ascontiguousarray", "atleast_1d", "ravel", "transpose",
     "broadcast_to"}
)

_MUTATES_RE = re.compile(r"^\s*:mutates\s+([A-Za-z_][\w]*(?:\s*,\s*[\w]+)*):",
                         re.MULTILINE)


def parse_mutates(docstring: str) -> Dict[str, int]:
    """``{param_name: docstring_line_offset}`` from ``:mutates a, b:`` lines."""
    out: Dict[str, int] = {}
    for match in _MUTATES_RE.finditer(docstring):
        line = docstring.count("\n", 0, match.start())
        for name in match.group(1).split(","):
            out[name.strip()] = line
    return out


def module_qualname(path: str) -> str:
    """Dotted module name of a repo-relative path (``src/repro/a/b.py``)."""
    trimmed = path
    if trimmed.startswith(SRC_ROOT + "/"):
        trimmed = trimmed[len(SRC_ROOT) + 1:]
    if trimmed.endswith("/__init__.py"):
        trimmed = trimmed[: -len("/__init__.py")]
    elif trimmed.endswith(".py"):
        trimmed = trimmed[:-3]
    return trimmed.replace("/", ".")


def annotation_names(node: Optional[ast.expr]) -> List[str]:
    """Plain identifiers mentioned by an annotation expression.

    ``Optional["BFSEngine"]`` → ``["Optional", "BFSEngine"]``; string
    annotations are parsed; ``np.ndarray`` contributes ``ndarray``.
    """
    if node is None:
        return []
    names: List[str] = []

    def visit(expr: ast.AST) -> None:
        if isinstance(expr, ast.Name):
            names.append(expr.id)
        elif isinstance(expr, ast.Attribute):
            names.append(expr.attr)
        elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                visit(ast.parse(expr.value, mode="eval").body)
            except SyntaxError:
                pass
        else:
            for child in ast.iter_child_nodes(expr):
                visit(child)

    visit(node)
    return names


# ---------------------------------------------------------------------------
# Summaries and events
# ---------------------------------------------------------------------------


@dataclass
class Event:
    """One observation a rule may care about (escape, stash, ...)."""

    kind: str  # "return" | "yield" | "store" | "stash"
    node: ast.AST
    desc: str  # which workspace buffer is involved


@dataclass
class FunctionSummary:
    """What a function does to provenance, seen from a call site."""

    qualname: str  # "module-local" qualified name: "f" or "Class.method"
    params: List[str]
    #: Per-element return provenance; length > 1 means a tuple return.
    returns: List[Prov] = field(default_factory=list)
    #: Parameter names mutated in place (``self`` included for methods).
    mutates: Set[str] = field(default_factory=set)
    events: List[Event] = field(default_factory=list)

    def joined_return(self) -> Prov:
        out: Set[Token] = set()
        for prov in self.returns:
            out |= prov
        return frozenset(out)


@dataclass
class ClassInfo:
    """Intra-package class: methods, attribute types, pooled buffers."""

    name: str
    qual: str  # "repro.graph.engine.BFSEngine"
    node: ast.ClassDef
    module: "ModuleInfo"
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    _attr_types: Optional[Dict[str, str]] = None
    _attr_types_in_progress: bool = False

    @property
    def pooled(self) -> FrozenSet[str]:
        return POOLED_BUFFER_ATTRS.get(self.qual, frozenset())

    def attr_types(self) -> Dict[str, str]:
        """``{attr: qualclass}`` for instance attributes with known types."""
        if self._attr_types is not None:
            return self._attr_types
        if self._attr_types_in_progress:
            return {}
        self._attr_types_in_progress = True
        try:
            found: Dict[str, str] = {}
            for stmt in self.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    qual = self.module.resolve_class_annotation(stmt.annotation)
                    if qual:
                        found[stmt.target.id] = qual
            init = self.methods.get("__init__")
            if init is not None:
                sink: Dict[str, str] = {}
                FunctionAnalyzer(
                    init, self, self.module, attr_sink=sink
                ).analyze()
                for attr, qual in sink.items():
                    found.setdefault(attr, qual)
            self._attr_types = found
            return found
        finally:
            self._attr_types_in_progress = False


def iter_module_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.FunctionDef, Optional[ast.ClassDef]]]:
    """Top-level functions and methods as ``(qualname, node, class node)``."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(stmt, ast.FunctionDef):
                yield stmt.name, stmt, None
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{stmt.name}.{sub.name}", sub, stmt


@dataclass
class ModuleInfo:
    """Parsed module plus its import map, ready for summary queries."""

    qual: str
    path: str
    tree: ast.Module
    index: "ProjectIndex"
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: local name -> (module qual, attr-or-None)
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    #: names bound at module level (assignment targets).
    globals: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    name=stmt.name,
                    qual=f"{self.qual}.{stmt.name}",
                    node=stmt,
                    module=self,
                )
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef):
                        info.methods[sub.name] = sub
                self.classes[stmt.name] = info
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (alias.name, None)
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    parts = self.qual.split(".")
                    parts = parts[: len(parts) - stmt.level]
                    base = ".".join(parts + ([stmt.module] if stmt.module else []))
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.imports[local] = (base, alias.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.globals.add(target.id)

    # -- name resolution -------------------------------------------------
    def resolve(
        self, name: str
    ) -> Optional[Tuple[str, object]]:
        """Resolve a local name to ``("class", ClassInfo)``,
        ``("func", (modqual, funcname))`` or ``("module", qual)``."""
        if name in self.classes:
            return ("class", self.classes[name])
        if name in self.functions:
            return ("func", (self.qual, name))
        entry = self.imports.get(name)
        if entry is None:
            return None
        modqual, attr = entry
        if attr is None:
            return ("module", modqual)
        submodule = f"{modqual}.{attr}" if modqual else attr
        if self.index.module(submodule) is not None:
            return ("module", submodule)
        target = self.index.module(modqual)
        if target is None:
            return None
        if attr in target.classes:
            return ("class", target.classes[attr])
        if attr in target.functions:
            return ("func", (modqual, attr))
        return None

    def resolve_class_annotation(self, node: Optional[ast.expr]) -> Optional[str]:
        """Qualified class name an annotation refers to, if intra-package."""
        for name in annotation_names(node):
            resolved = self.resolve(name)
            if resolved is not None and resolved[0] == "class":
                info = resolved[1]
                assert isinstance(info, ClassInfo)
                return info.qual
        return None


class ProjectIndex:
    """Lazy loader of intra-package modules and their function summaries.

    Modules are resolved relative to the repository root (``src/`` for
    the ``repro`` package), parsed on first use, and cached for the
    lifetime of the index — one lint run shares a single index across
    files.  A summary requested while it is being computed (recursive
    call chains) resolves to an empty summary, which terminates the
    fixpoint conservatively.
    """

    def __init__(self) -> None:
        self._modules: Dict[str, Optional[ModuleInfo]] = {}
        self._summaries: Dict[Tuple[str, str], FunctionSummary] = {}
        self._in_progress: Set[Tuple[str, str]] = set()

    # -- modules ---------------------------------------------------------
    def module(self, qual: str) -> Optional[ModuleInfo]:
        if qual in self._modules:
            return self._modules[qual]
        info: Optional[ModuleInfo] = None
        rel = qual.replace(".", "/")
        for candidate in (
            os.path.join(SRC_ROOT, rel + ".py"),
            os.path.join(SRC_ROOT, rel, "__init__.py"),
            rel + ".py",
            os.path.join(rel, "__init__.py"),
        ):
            if os.path.isfile(candidate):
                try:
                    with open(candidate, "r", encoding="utf-8") as handle:
                        tree = ast.parse(handle.read(), filename=candidate)
                except (OSError, SyntaxError):
                    break
                info = ModuleInfo(
                    qual=qual,
                    path=candidate.replace(os.sep, "/"),
                    tree=tree,
                    index=self,
                )
                break
        self._modules[qual] = info
        return info

    def module_for_source(self, path: str, tree: ast.Module) -> ModuleInfo:
        """Register an already-parsed module (the file being linted)."""
        qual = module_qualname(path)
        existing = self._modules.get(qual)
        if existing is not None and existing.path == path:
            return existing
        info = ModuleInfo(qual=qual, path=path, tree=tree, index=self)
        self._modules[qual] = info
        return info

    def class_by_qual(self, qual: str) -> Optional[ClassInfo]:
        modqual, _, clsname = qual.rpartition(".")
        mod = self.module(modqual)
        if mod is None:
            return None
        return mod.classes.get(clsname)

    # -- summaries -------------------------------------------------------
    def summary(
        self, module: ModuleInfo, qualname: str
    ) -> Optional[FunctionSummary]:
        """Summary of ``qualname`` (``"f"`` or ``"Class.method"``)."""
        key = (module.qual, qualname)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return None
        owner: Optional[ClassInfo] = None
        func: Optional[ast.FunctionDef] = None
        if "." in qualname:
            clsname, _, methname = qualname.partition(".")
            owner = module.classes.get(clsname)
            if owner is not None:
                func = owner.methods.get(methname)
        else:
            func = module.functions.get(qualname)
        if func is None:
            return None
        self._in_progress.add(key)
        try:
            summary = FunctionAnalyzer(func, owner, module).analyze()
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary

    def summary_for_method(
        self, qualclass: str, method: str
    ) -> Optional[FunctionSummary]:
        info = self.class_by_qual(qualclass)
        if info is None or method not in info.methods:
            return None
        return self.summary(info.module, f"{info.name}.{method}")


# ---------------------------------------------------------------------------
# The per-function abstract interpreter
# ---------------------------------------------------------------------------


def _is_numpy_name(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _index_has_slice(node: ast.expr) -> bool:
    if isinstance(node, ast.Slice):
        return True
    if isinstance(node, ast.Tuple):
        return any(isinstance(elt, ast.Slice) for elt in node.elts)
    return False


def _workspace_descs(prov: Prov) -> List[str]:
    return sorted(
        token[1] for token in prov if token[0] in ("workspace", "carrier")
    )


class FunctionAnalyzer:
    """Interprets one function body over the provenance lattice.

    Two passes over the statements: the first stabilises loop-carried
    bindings, the second records mutations, returns, and escape events.
    """

    def __init__(
        self,
        func: ast.FunctionDef,
        owner: Optional[ClassInfo],
        module: ModuleInfo,
        attr_sink: Optional[Dict[str, str]] = None,
    ) -> None:
        self.func = func
        self.owner = owner
        self.module = module
        self.index = module.index
        self.attr_sink = attr_sink
        self.env: Dict[str, Prov] = {}
        self.mutates: Set[str] = set()
        self.events: List[Event] = []
        self.returns: List[List[Prov]] = []
        self._collect = False

    # -- entry point -----------------------------------------------------
    def analyze(self) -> FunctionSummary:
        params = self._seed_params()
        self._exec_block(self.func.body)
        self._collect = True
        self.mutates.clear()
        self._exec_block(self.func.body)
        returns = self._fold_returns()
        if not any(returns):
            qual = self.module.resolve_class_annotation(self.func.returns)
            if qual:
                returns = [frozenset({("instance", qual)})]
        qualname = (
            f"{self.owner.name}.{self.func.name}"
            if self.owner is not None
            else self.func.name
        )
        return FunctionSummary(
            qualname=qualname,
            params=params,
            returns=returns,
            mutates=set(self.mutates),
            events=list(self.events),
        )

    def _seed_params(self) -> List[str]:
        args = self.func.args
        ordered = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ]
        names: List[str] = []
        for i, arg in enumerate(ordered):
            names.append(arg.arg)
            tokens: Set[Token] = {("param", arg.arg)}
            if i == 0 and self.owner is not None and arg.arg in ("self", "cls"):
                tokens.add(("instance", self.owner.qual))
            else:
                qual = self.module.resolve_class_annotation(arg.annotation)
                if qual:
                    tokens.add(("instance", qual))
            self.env[arg.arg] = frozenset(tokens)
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                names.append(vararg.arg)
                self.env[vararg.arg] = frozenset({("param", vararg.arg)})
        return names

    def _fold_returns(self) -> List[Prov]:
        if not self.returns:
            return []
        width = {len(shape) for shape in self.returns}
        if len(width) == 1 and width != {1}:
            folded = []
            for i in range(width.pop()):
                out: Set[Token] = set()
                for shape in self.returns:
                    out |= shape[i]
                folded.append(frozenset(out))
            return folded
        out_all: Set[Token] = set()
        for shape in self.returns:
            for prov in shape:
                out_all |= prov
        return [frozenset(out_all)]

    # -- statements ------------------------------------------------------
    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt)
        elif isinstance(stmt, ast.Return):
            shape = self._eval_shaped(stmt.value) if stmt.value else [EMPTY]
            if self._collect:
                self.returns.append(shape)
                for prov in shape:
                    for desc in _workspace_descs(prov):
                        self.events.append(
                            Event("return", stmt, desc)
                        )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            before = dict(self.env)
            self._exec_block(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self._exec_block(stmt.orelse)
            self._merge_env(after_body)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            before = dict(self.env)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
            self._merge_env(before)
        elif isinstance(stmt, ast.For):
            self._eval(stmt.iter)
            before = dict(self.env)
            self._bind_target(stmt.target, EMPTY)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
            self._merge_env(before)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, EMPTY)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Nested defs/classes are not descended into: their bodies run in
        # another scope and are summarised on their own when called.

    def _exec_assign(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value)
            target_prov = self._eval(stmt.target)
            self._record_mutation(target_prov)
            return
        if isinstance(stmt, ast.AnnAssign):
            targets: List[ast.expr] = [stmt.target]
            value = stmt.value
        else:
            assert isinstance(stmt, ast.Assign)
            targets = stmt.targets
            value = stmt.value
        if value is None:
            return
        needs_shape = any(isinstance(t, ast.Tuple) for t in targets)
        shape = self._eval_shaped(value) if needs_shape else [self._eval(value)]
        for target in targets:
            self._bind_target(target, shape[0] if len(shape) == 1 else None,
                              shape=shape)

    def _bind_target(
        self,
        target: ast.expr,
        prov: Optional[Prov],
        shape: Optional[List[Prov]] = None,
    ) -> None:
        if isinstance(target, ast.Name):
            joined = prov if prov is not None else self._join(shape or [])
            self.env[target.id] = joined
        elif isinstance(target, ast.Tuple):
            elts = target.elts
            if shape is not None and len(shape) == len(elts):
                for elt, sub in zip(elts, shape):
                    self._bind_target(elt, sub)
            else:
                joined = prov if prov is not None else self._join(shape or [])
                for elt in elts:
                    self._bind_target(elt, joined)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, prov, shape)
        elif isinstance(target, ast.Attribute):
            recv = self._eval(target.value)
            self._record_mutation(recv)
            value_prov = prov if prov is not None else self._join(shape or [])
            if self.attr_sink is not None and self._is_self(target.value):
                for token in value_prov:
                    if token[0] == "instance":
                        self.attr_sink[target.attr] = token[1]
            if self._collect:
                for desc in _workspace_descs(value_prov):
                    if not self._is_workspace_owner(recv):
                        self.events.append(
                            Event(
                                "store",
                                target,
                                desc,
                            )
                        )
        elif isinstance(target, ast.Subscript):
            base = self._eval(target.value)
            self._record_mutation(base)
            value_prov = prov if prov is not None else self._join(shape or [])
            if self._collect:
                stashy = any(
                    token[0] in ("param", "paramattr", "global", "instance")
                    for token in base
                )
                if stashy:
                    for desc in _workspace_descs(value_prov):
                        self.events.append(Event("stash", target, desc))

    def _is_self(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in ("self", "cls")

    def _is_workspace_owner(self, prov: Prov) -> bool:
        return any(
            token[0] == "instance" and token[1] in POOLED_BUFFER_ATTRS
            for token in prov
        )

    def _merge_env(self, other: Dict[str, Prov]) -> None:
        """Join another env into the live one (branch/loop confluence)."""
        for name, prov in other.items():
            self.env[name] = self.env.get(name, EMPTY) | prov

    def _join(self, provs: Sequence[Prov]) -> Prov:
        out: Set[Token] = set()
        for prov in provs:
            out |= prov
        return frozenset(out)

    def _record_mutation(self, prov: Prov) -> None:
        for token in prov:
            if token[0] in ("param", "paramattr"):
                self.mutates.add(token[1])

    # -- expressions -----------------------------------------------------
    def _eval_shaped(self, expr: Optional[ast.expr]) -> List[Prov]:
        if expr is None:
            return [EMPTY]
        if isinstance(expr, ast.Tuple):
            return [self._eval(elt) for elt in expr.elts]
        if isinstance(expr, ast.Call):
            shaped = self._eval_call(expr, shaped=True)
            assert isinstance(shaped, list)
            return shaped
        return [self._eval(expr)]

    def _eval(self, expr: Optional[ast.expr]) -> Prov:
        if expr is None:
            return EMPTY
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.env[expr.id]
            if expr.id in self.module.globals:
                return frozenset({("global", expr.id)})
            return EMPTY
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Call):
            result = self._eval_call(expr, shaped=False)
            assert isinstance(result, frozenset)
            return result
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value)
            self._eval(expr.slice)
            if _index_has_slice(expr.slice):
                return base  # basic slicing returns a view
            return EMPTY  # scalar reads and fancy/boolean indexing copy
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            # A container literal aliases its elements: packing a loan
            # into a tuple must not launder its provenance.
            return self._join([self._eval(elt) for elt in expr.elts])
        if isinstance(expr, ast.Dict):
            return self._join(
                [self._eval(v) for v in expr.values if v is not None]
            )
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._join([self._eval(expr.body), self._eval(expr.orelse)])
        if isinstance(expr, ast.BoolOp):
            return self._join([self._eval(v) for v in expr.values])
        if isinstance(expr, ast.NamedExpr):
            prov = self._eval(expr.value)
            self._bind_target(expr.target, prov)
            return prov
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            inner = self._eval(expr.value) if expr.value is not None else EMPTY
            if self._collect:
                for desc in _workspace_descs(inner):
                    self.events.append(Event("yield", expr, desc))
            return EMPTY
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        # Arithmetic, comparisons, literals, f-strings, comprehensions:
        # these allocate fresh values; evaluate children for side effects.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child)
        return EMPTY

    def _eval_attribute(self, expr: ast.Attribute) -> Prov:
        base = self._eval(expr.value)
        out: Set[Token] = set()
        for token in base:
            if token[0] == "instance":
                info = self.index.class_by_qual(token[1])
                if info is not None:
                    if expr.attr in info.pooled:
                        out.add(("workspace", f"{info.name}.{expr.attr}"))
                    attr_qual = info.attr_types().get(expr.attr)
                    if attr_qual:
                        out.add(("instance", attr_qual))
            elif token[0] == "param":
                out.add(("paramattr", token[1], expr.attr))
        return frozenset(out)

    # -- calls -----------------------------------------------------------
    def _eval_call(self, node: ast.Call, shaped: bool):
        arg_provs = [self._eval(arg) for arg in node.args]
        kw_provs = {
            kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)
        # out= mutates whatever it aliases, whoever the callee is.
        if "out" in kw_provs:
            self._record_mutation(kw_provs["out"])

        result = self._dispatch_call(node, arg_provs, kw_provs)
        if shaped:
            return result if isinstance(result, list) else [result]
        if isinstance(result, list):
            return self._join(result)
        return result

    def _dispatch_call(
        self,
        node: ast.Call,
        arg_provs: List[Prov],
        kw_provs: Dict[str, Prov],
    ):
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._dispatch_method(node, func, arg_provs, kw_provs)
        if isinstance(func, ast.Name):
            resolved = self.module.resolve(func.id)
            if resolved is None:
                return EMPTY
            kind, payload = resolved
            if kind == "class":
                info = payload
                assert isinstance(info, ClassInfo)
                tokens: Set[Token] = {("instance", info.qual)}
                carried = [
                    desc
                    for prov in (*arg_provs, *kw_provs.values())
                    for desc in _workspace_descs(prov)
                ]
                # Constructing an object from a pooled buffer stashes it
                # unless the class is itself a registered workspace owner.
                if carried and info.qual not in POOLED_BUFFER_ATTRS:
                    for desc in carried:
                        tokens.add(("carrier", desc))
                return frozenset(tokens)
            if kind == "func":
                modqual, funcname = payload  # type: ignore[misc]
                target = self.index.module(modqual)
                if target is None:
                    return EMPTY
                summary = self.index.summary(target, funcname)
                if summary is None:
                    return EMPTY
                return self._apply_summary(
                    summary, node, arg_provs, kw_provs, recv=None
                )
        return EMPTY

    def _dispatch_method(
        self,
        node: ast.Call,
        func: ast.Attribute,
        arg_provs: List[Prov],
        kw_provs: Dict[str, Prov],
    ):
        meth = func.attr
        # module-qualified function call: traversal.bfs_distances(...)
        if isinstance(func.value, ast.Name):
            resolved = self.module.resolve(func.value.id)
            if resolved is not None and resolved[0] == "module":
                target = self.index.module(str(resolved[1]))
                if target is not None:
                    summary = self.index.summary(target, meth)
                    if summary is not None:
                        return self._apply_summary(
                            summary, node, arg_provs, kw_provs, recv=None
                        )
                return EMPTY
        recv = self._eval(func.value)
        if meth == "copy":
            return EMPTY
        if meth == "astype":
            copy_false = any(
                kw.arg == "copy"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            )
            return recv if copy_false else EMPTY
        if meth in VIEW_METHODS:
            return recv
        if meth in MUTATING_ARRAY_METHODS:
            self._record_mutation(recv)
            return EMPTY
        if meth in CONTAINER_STASH_METHODS:
            self._record_mutation(recv)
            if self._collect:
                stashy = any(
                    token[0] in ("param", "paramattr", "global", "instance")
                    for token in recv
                )
                if stashy:
                    for prov in (*arg_provs, *kw_provs.values()):
                        for desc in _workspace_descs(prov):
                            self.events.append(Event("stash", node, desc))
            return EMPTY
        if meth == "at" and len(node.args) >= 2:
            # np.<ufunc>.at(target, ...) mutates target in place.
            self._record_mutation(arg_provs[0])
            return EMPTY
        if _is_numpy_name(func.value):
            if meth in VIEW_FUNCS and arg_provs:
                return arg_provs[0]
            if meth == "array" and arg_provs:
                copy_false = any(
                    kw.arg == "copy"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                )
                return arg_provs[0] if copy_false else EMPTY
            return EMPTY
        for token in recv:
            if token[0] == "instance":
                summary = self.index.summary_for_method(token[1], meth)
                if summary is not None:
                    return self._apply_summary(
                        summary, node, arg_provs, kw_provs, recv=recv
                    )
        return EMPTY

    def _apply_summary(
        self,
        summary: FunctionSummary,
        node: ast.Call,
        arg_provs: List[Prov],
        kw_provs: Dict[str, Prov],
        recv: Optional[Prov],
    ):
        binding: Dict[str, Prov] = {}
        params = list(summary.params)
        if recv is not None and params and params[0] in ("self", "cls"):
            binding[params[0]] = recv
            params = params[1:]
        for i, prov in enumerate(arg_provs):
            if i < len(params):
                binding[params[i]] = prov
        for name, prov in kw_provs.items():
            if name in summary.params:
                binding[name] = prov
        for mutated in summary.mutates:
            self._record_mutation(binding.get(mutated, EMPTY))
        shaped = [
            self._map_return(prov, binding) for prov in summary.returns
        ]
        return shaped if len(shaped) > 1 else (shaped[0] if shaped else EMPTY)

    def _map_return(self, prov: Prov, binding: Dict[str, Prov]) -> Prov:
        out: Set[Token] = set()
        for token in prov:
            if token[0] == "param":
                out |= binding.get(token[1], EMPTY)
            elif token[0] == "paramattr":
                for bound in binding.get(token[1], EMPTY):
                    if bound[0] == "instance":
                        info = self.index.class_by_qual(bound[1])
                        if info is not None and token[2] in info.pooled:
                            out.add(
                                ("workspace", f"{info.name}.{token[2]}")
                            )
                    elif bound[0] == "param":
                        out.add(("paramattr", bound[1], token[2]))
            elif token[0] in ("workspace", "instance", "carrier"):
                out.add(token)
        return frozenset(out)
