"""Per-rule fixtures: each rule fires on a minimal bad example and stays
silent on the corresponding good example."""

import textwrap
from pathlib import Path

import pytest

from reprolint import lint_source

SRC = "src/repro/example.py"
HOT = "src/repro/core/example.py"
REPO_ROOT = Path(__file__).resolve().parents[2]


def codes(diagnostics):
    return sorted({d.rule_id for d in diagnostics})


def run(source, path=SRC, select=None):
    diags = lint_source(textwrap.dedent(source), path=path)
    if select is not None:
        diags = [d for d in diags if d.rule_id == select]
    return diags


# A fully-annotated module skeleton that satisfies R5/R7 so fixtures can
# isolate one rule at a time.
def wrap(body):
    return (
        '"""Fixture module."""\n'
        "import numpy as np\n"
        "__all__ = []\n" + textwrap.dedent(body)
    )


def engine_loan(body):
    """``wrap(body)`` with ``BFSEngine`` imported: ``e.run(s)`` on an
    ``e: BFSEngine`` returns a loan of the engine's pooled distance
    buffer, which R9 tracks through the real ``src/`` tree."""
    return wrap("from repro.graph.engine import BFSEngine\n" + body)


@pytest.fixture
def repo_root(monkeypatch):
    """The index resolves ``repro.*`` modules relative to the repo root."""
    monkeypatch.chdir(REPO_ROOT)


# ----------------------------------------------------------------- R1
class TestCsrImmutable:
    def test_fires_on_attribute_write(self):
        diags = run(wrap("def f(g: object) -> None:\n    g.indptr = None\n"),
                    select="R1")
        assert len(diags) == 1
        assert "indptr" in diags[0].message

    def test_fires_on_subscript_write(self):
        diags = run(wrap("def f(g: object) -> None:\n    g.indices[0] = 1\n"),
                    select="R1")
        assert len(diags) == 1

    def test_fires_on_setflags_write_true(self):
        diags = run(
            wrap("def f(g: object) -> None:\n"
                 "    g.indptr.setflags(write=True)\n"),
            select="R1",
        )
        assert len(diags) == 1

    def test_silent_on_reads_and_locals(self):
        diags = run(
            wrap(
                "def f(g: object) -> int:\n"
                "    indptr = np.zeros(3, dtype=np.int64)\n"
                "    indptr[0] = 1\n"  # local Name, not an attribute
                "    return int(g.indptr[0])\n"
            ),
            select="R1",
        )
        assert diags == []

    def test_silent_in_csr_module(self):
        diags = run(
            wrap("def f(g: object) -> None:\n    g.indptr = None\n"),
            path="src/repro/graph/csr.py",
        )
        assert "R1" not in codes(diags)

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/graph/builder.py",
            "src/repro/weighted/graph.py",
            "src/repro/directed/graph.py",
            "src/repro/store/format.py",
        ],
    )
    def test_fires_in_former_constructor_modules(self, path):
        """Only repro.graph.csr builds CSR arrays, so a private-slot
        write anywhere else — the store's open included — is reported."""
        diags = run(
            wrap("def f(g: object) -> None:\n    g._indptr = None\n"),
            path=path,
            select="R1",
        )
        assert len(diags) == 1
        assert "_indptr" in diags[0].message

    def test_setflags_false_is_allowed(self):
        diags = run(
            wrap("def f(arr: np.ndarray) -> None:\n"
                 "    arr.setflags(write=False)\n"),
            select="R1",
        )
        assert diags == []


# ----------------------------------------------------------------- R2
class TestBoundsApi:
    def test_fires_on_attribute_subscript_write(self):
        diags = run(
            wrap("def f(state: object) -> None:\n    state.lower[0] = 3\n"),
            select="R2",
        )
        assert len(diags) == 1

    def test_fires_on_named_array(self):
        diags = run(wrap("def f() -> None:\n    ecc_upper = None\n"),
                    select="R2")
        assert len(diags) == 1

    def test_fires_on_augmented_write(self):
        diags = run(
            wrap("def f(state: object) -> None:\n    state.upper -= 1\n"),
            select="R2",
        )
        assert len(diags) == 1

    def test_silent_on_reads_and_method_calls(self):
        diags = run(
            wrap(
                "def f(state: object, s: str) -> str:\n"
                "    x = state.lower[0] + state.upper[0]\n"
                "    return s.lower() + str(x)\n"
            ),
            select="R2",
        )
        assert diags == []

    def test_silent_inside_bounds_module(self):
        diags = run(
            wrap("def f(state: object) -> None:\n    state.lower[0] = 3\n"),
            path="src/repro/core/bounds.py",
        )
        assert "R2" not in codes(diags)

    def test_bare_names_fire_in_solver_core(self):
        # In BOUNDS_PROTECTED_MODULES even bare lower/upper locals are
        # bound arrays: raw writes would bypass the BoundState invariant.
        diags = run(
            wrap("def f(x: int) -> None:\n    lower = x\n    upper = x\n"),
            path="src/repro/core/solver.py",
            select="R2",
        )
        assert len(diags) == 2

    def test_bare_names_fire_in_metric_instantiations(self):
        for path in (
            "src/repro/weighted/eccentricity.py",
            "src/repro/directed/eccentricity.py",
        ):
            diags = run(
                wrap("def f(x: int) -> None:\n    lower = x\n"),
                path=path,
                select="R2",
            )
            assert len(diags) == 1, path

    def test_bare_names_silent_outside_protected_modules(self):
        diags = run(
            wrap("def f(x: int) -> int:\n    lower = x\n    return lower\n"),
            select="R2",
        )
        assert diags == []


# ----------------------------------------------------------------- R3
class TestImportHygiene:
    def test_fires_on_networkx(self):
        diags = run(wrap("import networkx\n"), select="R3")
        assert len(diags) == 1

    def test_fires_on_scipy_from_import(self):
        diags = run(wrap("from scipy.sparse import csr_matrix\n"),
                    select="R3")
        assert len(diags) == 1

    def test_fires_on_unknown_third_party(self):
        diags = run(wrap("import requests\n"), select="R3")
        assert len(diags) == 1

    def test_silent_on_stdlib_numpy_and_repro(self):
        diags = run(
            wrap("import os\nimport numpy\nfrom repro.graph.csr import Graph\n"),
            select="R3",
        )
        assert diags == []

    def test_silent_outside_src(self):
        diags = run(wrap("import networkx\n"), path="tests/test_example.py")
        assert "R3" not in codes(diags)


# ---------------------------------------------------------------- R12
def bare(body):
    """A fixture module importing nothing but what ``body`` imports."""
    return '"""Fixture module."""\n__all__ = []\n' + textwrap.dedent(body)


class TestUnusedImport:
    """R12: every import under src/repro/ is read or re-exported."""

    def test_fires_on_unread_import(self):
        diags = run(bare("import os\n"), select="R12")
        assert len(diags) == 1
        assert "'os'" in diags[0].message

    def test_fires_on_each_unread_from_import_name(self):
        diags = run(
            bare(
                "from typing import Any, Optional\n"
                "def f(x: Optional[int]) -> None:\n"
                "    return None\n"
            ),
            select="R12",
        )
        assert ["'Any'" in d.message for d in diags] == [True]

    def test_fires_on_unread_alias_and_function_level_import(self):
        diags = run(
            bare(
                "from repro.graph.csr import Graph as G\n"
                "def f() -> None:\n"
                "    import json\n"
            ),
            select="R12",
        )
        assert sorted(d.line for d in diags) == [3, 5]

    def test_silent_on_reads(self):
        diags = run(
            bare(
                "import os.path\n"
                "import numpy as np\n"
                "from repro.graph.csr import Graph\n"
                "def f(g: Graph) -> str:\n"
                "    return os.path.join('a', str(np.int32(1)))\n"
            ),
            select="R12",
        )
        assert diags == []

    def test_string_annotation_counts_as_read(self):
        diags = run(
            bare(
                "from typing import Optional\n"
                "from repro.counters import TraversalCounter\n"
                "def f(c: Optional['TraversalCounter'] = None) -> None:\n"
                "    return None\n"
            ),
            select="R12",
        )
        assert diags == []

    def test_reexport_in_all_counts_as_read(self):
        source = (
            '"""Fixture module."""\n'
            "from repro.graph.csr import Graph\n"
            "__all__ = ['Graph']\n"
        )
        assert run(source, select="R12") == []

    def test_future_import_exempt(self):
        diags = run(bare("from __future__ import annotations\n"), select="R12")
        assert diags == []

    def test_silent_outside_src(self):
        diags = run(bare("import os\n"), path="tests/test_example.py")
        assert "R12" not in codes(diags)


# ----------------------------------------------------------------- R4
class TestHotPathLoops:
    def test_fires_on_nested_range_loop(self):
        diags = run(
            wrap(
                "def f(n: int) -> int:\n"
                "    total = 0\n"
                "    for u in range(n):\n"
                "        for v in range(n):\n"
                "            total += v\n"
                "    return total\n"
            ),
            path=HOT,
            select="R4",
        )
        assert len(diags) == 1

    def test_fires_on_neighbors_in_loop(self):
        diags = run(
            wrap(
                "def f(g: object, n: int) -> None:\n"
                "    for v in range(n):\n"
                "        _ = list(g.neighbors(v))\n"
            ),
            path=HOT,
            select="R4",
        )
        assert len(diags) == 1

    @pytest.mark.parametrize(
        "expr",
        [
            "[g.neighbors(int(v)) for v in keep]",
            "{v: g.neighbors(v) for v in keep}",
            "sum(len(g.neighbors(v)) for v in keep)",
            "[v for v in keep if len(g.neighbors(v)) > 1]",
            "[u for v in keep for u in g.neighbors(v)]",
        ],
    )
    def test_fires_on_neighbors_in_comprehension(self, expr):
        diags = run(
            wrap(
                "def f(g: object, keep: object) -> object:\n"
                f"    return {expr}\n"
            ),
            path=HOT,
            select="R4",
        )
        assert len(diags) == 1
        assert "comprehension" in diags[0].message

    def test_silent_on_comprehension_over_neighbors(self):
        """The first iterable is evaluated once, not per element."""
        diags = run(
            wrap(
                "def f(g: object, v: int) -> object:\n"
                "    return [u + 1 for u in g.neighbors(v)]\n"
            ),
            path=HOT,
            select="R4",
        )
        assert diags == []

    def test_comprehension_in_loop_reported_once(self):
        diags = run(
            wrap(
                "def f(g: object, groups: object) -> None:\n"
                "    for keep in groups:\n"
                "        _ = [g.neighbors(v) for v in keep]\n"
            ),
            path=HOT,
            select="R4",
        )
        assert len(diags) == 1

    def test_silent_on_single_loop(self):
        diags = run(
            wrap(
                "def f(n: int) -> int:\n"
                "    total = 0\n"
                "    for v in range(n):\n"
                "        total += v\n"
                "    return total\n"
            ),
            path=HOT,
            select="R4",
        )
        assert diags == []

    def test_silent_outside_hot_modules(self):
        diags = run(
            wrap(
                "def f(n: int) -> None:\n"
                "    for u in range(n):\n"
                "        for v in range(n):\n"
                "            pass\n"
            ),
            path="src/repro/analysis/example.py",
        )
        assert "R4" not in codes(diags)

    def test_nested_function_resets_depth(self):
        diags = run(
            wrap(
                "def f(n: int) -> None:\n"
                "    for v in range(n):\n"
                "        def inner(m: int) -> None:\n"
                "            for u in range(m):\n"
                "                pass\n"
            ),
            path=HOT,
            select="R4",
        )
        assert diags == []


# ----------------------------------------------------------------- R5
class TestPublicApi:
    def test_fires_when_all_missing(self):
        diags = run('"""Doc."""\nX = 1\n', select="R5")
        assert len(diags) == 1
        assert "__all__" in diags[0].message

    def test_fires_on_phantom_name(self):
        diags = run('"""Doc."""\n__all__ = ["missing"]\nX = 1\n',
                    select="R5")
        assert len(diags) == 1
        assert "missing" in diags[0].message

    def test_fires_on_non_literal_all(self):
        diags = run('"""Doc."""\n__all__ = [x for x in ("a",)]\na = 1\n',
                    select="R5")
        assert len(diags) == 1

    def test_fires_on_duplicate_entry(self):
        diags = run('"""Doc."""\n__all__ = ["X", "X"]\nX = 1\n',
                    select="R5")
        assert len(diags) == 1

    def test_silent_on_accurate_all(self):
        diags = run(
            '"""Doc."""\n'
            "try:\n    import os\nexcept ImportError:\n    os = None\n"
            '__all__ = ["os", "f", "X"]\n'
            "X = 1\n"
            "def f() -> None:\n    pass\n",
            select="R5",
        )
        assert diags == []

    def test_silent_outside_src(self):
        diags = run('"""Doc."""\nX = 1\n', path="tests/test_example.py")
        assert "R5" not in codes(diags)

    def test_silent_on_pep562_getattr_name(self):
        # A deprecated alias served by module __getattr__ (PEP 562)
        # counts as bound even with no module-scope assignment.
        diags = run(
            '"""Doc."""\n'
            '__all__ = ["X", "OldX"]\n'
            "X = 1\n"
            "def __getattr__(name: str) -> object:\n"
            '    if name == "OldX":\n'
            "        return X\n"
            "    raise AttributeError(name)\n",
            select="R5",
        )
        assert diags == []


# ----------------------------------------------------------------- R6
class TestDtypeContracts:
    def test_fires_on_contract_mismatch(self):
        diags = run(
            wrap(
                "def f(n: int) -> np.ndarray:\n"
                '    """Doc.\n\n    :dtype dist: int32\n    """\n'
                "    dist = np.zeros(n, dtype=np.int64)\n"
                "    return dist\n"
            ),
            select="R6",
        )
        assert len(diags) == 1
        assert "int64" in diags[0].message

    def test_fires_on_astype_mismatch(self):
        diags = run(
            wrap(
                "def f(x: np.ndarray) -> np.ndarray:\n"
                '    """Doc.\n\n    :dtype y: int32\n    """\n'
                "    y = x.astype(np.float64)\n"
                "    return y\n"
            ),
            select="R6",
        )
        assert len(diags) == 1

    def test_fires_on_noncanonical_indptr(self):
        diags = run(
            wrap(
                "def f(n: int) -> np.ndarray:\n"
                "    indptr = np.zeros(n, dtype=np.int32)\n"
                "    return indptr\n"
            ),
            select="R6",
        )
        assert len(diags) == 1
        assert "Theorem 4.5" in diags[0].message

    def test_fires_on_unknown_dtype_spelling(self):
        diags = run(
            wrap(
                "def f() -> None:\n"
                '    """Doc.\n\n    :dtype x: int33\n    """\n'
            ),
            select="R6",
        )
        assert len(diags) == 1

    def test_silent_on_matching_contract(self):
        diags = run(
            wrap(
                "def f(n: int) -> np.ndarray:\n"
                '    """Doc.\n\n    :dtype dist: int32\n    """\n'
                "    dist = np.full(n, -1, dtype=np.int32)\n"
                "    return dist\n"
            ),
            select="R6",
        )
        assert diags == []

    def test_silent_without_explicit_dtype(self):
        diags = run(
            wrap(
                "def f(x: np.ndarray) -> np.ndarray:\n"
                '    """Doc.\n\n    :dtype y: int32\n    """\n'
                "    y = np.sort(x)\n"
                "    return y\n"
            ),
            select="R6",
        )
        assert diags == []


# ----------------------------------------------------------------- R7
class TestTypingGate:
    def test_fires_on_unannotated_parameter(self):
        diags = run(
            wrap("def f(x) -> None:\n    pass\n"), select="R7"
        )
        assert len(diags) == 1
        assert "'x'" in diags[0].message

    def test_fires_on_missing_return(self):
        diags = run(wrap("def f(x: int):\n    pass\n"), select="R7")
        assert len(diags) == 1

    def test_fires_on_unannotated_method(self):
        diags = run(
            wrap(
                "class C:\n"
                "    def m(self, x):\n"
                "        pass\n"
            ),
            select="R7",
        )
        assert len(diags) == 2  # parameter + return

    def test_self_and_cls_are_exempt(self):
        diags = run(
            wrap(
                "class C:\n"
                "    def m(self) -> None:\n"
                "        pass\n"
                "    @classmethod\n"
                "    def c(cls) -> None:\n"
                "        pass\n"
            ),
            select="R7",
        )
        assert diags == []

    def test_starargs_need_annotations(self):
        diags = run(
            wrap("def f(*args, **kwargs) -> None:\n    pass\n"),
            select="R7",
        )
        assert len(diags) == 1
        assert "*args" in diags[0].message and "**kwargs" in diags[0].message

    def test_silent_outside_src(self):
        diags = run(wrap("def f(x):\n    pass\n"),
                    path="tests/test_example.py")
        assert "R7" not in codes(diags)


# ----------------------------------------------------------------- R8
class TestAdhocTiming:
    def test_fires_on_perf_counter_pair(self):
        diags = run(
            wrap(
                """
                import time
                def f() -> float:
                    start = time.perf_counter()
                    return time.perf_counter() - start
                """
            ),
            select="R8",
        )
        assert len(diags) == 2
        assert "Stopwatch" in diags[0].message

    def test_fires_on_from_import_alias(self):
        diags = run(
            wrap(
                """
                from time import perf_counter as clock
                def f() -> float:
                    return clock()
                """
            ),
            select="R8",
        )
        assert len(diags) == 1

    def test_fires_on_monotonic(self):
        diags = run(
            wrap(
                """
                import time
                def f() -> float:
                    return time.monotonic()
                """
            ),
            select="R8",
        )
        assert len(diags) == 1

    def test_silent_on_stopwatch(self):
        diags = run(
            wrap(
                """
                from repro.obs.trace import Stopwatch
                def f() -> float:
                    watch = Stopwatch()
                    return watch.elapsed()
                """
            ),
            select="R8",
        )
        assert diags == []

    def test_silent_inside_obs(self):
        # repro.obs implements the clock abstraction; the raw counter is
        # allowed there (and only there).
        diags = run(
            wrap(
                """
                import time
                def f() -> float:
                    return time.perf_counter()
                """
            ),
            path="src/repro/obs/trace.py",
            select="R8",
        )
        assert diags == []

    def test_silent_outside_src(self):
        diags = run(
            wrap(
                """
                import time
                def f() -> float:
                    return time.perf_counter()
                """
            ),
            path="tests/test_example.py",
            select="R8",
        )
        assert diags == []

    def test_silent_on_unrelated_time_calls(self):
        diags = run(
            wrap(
                """
                import time
                def f() -> str:
                    return time.strftime("%Y")
                """
            ),
            select="R8",
        )
        assert diags == []


# ------------------------------------------------------- suppressions
class TestSuppressions:
    def test_line_level_disable(self):
        diags = run(
            wrap("def f(g: object) -> None:\n"
                 "    g.indptr = None  # reprolint: disable=R1\n"),
            select="R1",
        )
        assert diags == []

    def test_slug_name_disable(self):
        diags = run(
            wrap("def f(g: object) -> None:\n"
                 "    g.indptr = None  # reprolint: disable=csr-immutable\n"),
            select="R1",
        )
        assert diags == []

    def test_comment_above_disables_next_line(self):
        diags = run(
            wrap(
                "def f(g: object) -> None:\n"
                "    # reprolint: disable=R1 (fixture justification)\n"
                "    g.indptr = None\n"
            ),
            select="R1",
        )
        assert diags == []

    def test_file_level_disable(self):
        diags = run(
            '"""Doc."""\n'
            "# reprolint: disable-file=R5\n"
            "X = 1\n",
            select="R5",
        )
        assert diags == []

    def test_unrelated_rule_still_fires(self):
        diags = run(
            wrap("def f(g: object) -> None:\n"
                 "    g.indptr = None  # reprolint: disable=R2\n"),
            select="R1",
        )
        assert len(diags) == 1


# ------------------------------------------------------------- engine
class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        from reprolint import lint_paths

        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        diags = lint_paths([str(bad)])
        assert len(diags) == 1
        assert diags[0].rule_id == "E0"

    def test_rule_metadata_complete(self):
        from reprolint import all_rules

        rules = all_rules()
        assert len(rules) >= 6
        for rule_obj in rules:
            assert rule_obj.rule_id and rule_obj.rule_name
            assert rule_obj.summary and rule_obj.protects

    def test_missing_path_raises(self):
        from reprolint import lint_paths

        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"])


# ----------------------------------------------------------------- R9
class TestWorkspaceEscape:
    """R9: pooled workspace buffers must not escape without a copy."""

    def test_protocol_loan_return_flagged(self, repo_root):
        # A registered producer (BFSEngine.run) lends its pooled buffer.
        diags = run(
            engine_loan(
                "def consume(e: BFSEngine) -> np.ndarray:\n"
                "    dist = e.run(0)\n"
                "    return dist\n"
            ),
            select="R9",
        )
        assert len(diags) == 1
        assert "pooled workspace" in diags[0].message

    def test_copy_is_clean(self, repo_root):
        diags = run(
            engine_loan(
                "def consume(e: BFSEngine) -> np.ndarray:\n"
                "    dist = e.run(0)\n"
                "    return dist.copy()\n"
            ),
            select="R9",
        )
        assert diags == []

    def test_pooled_attr_return_flagged(self):
        diags = run(
            wrap(
                "class BFSEngine:\n"
                "    def __init__(self, n: int) -> None:\n"
                "        self._dist = np.empty(n, dtype=np.int32)\n"
                "    def peek(self) -> np.ndarray:\n"
                "        return self._dist\n"
            ),
            path="src/repro/graph/engine.py",
            select="R9",
        )
        assert len(diags) == 1

    def test_registered_producer_exempt(self):
        # BFSEngine.run is a documented producer: its own return of the
        # pooled buffer is the API, not an escape.
        diags = run(
            wrap(
                "class BFSEngine:\n"
                "    def __init__(self, n: int) -> None:\n"
                "        self._dist = np.empty(n, dtype=np.int32)\n"
                "    def run(self, s: int) -> np.ndarray:\n"
                "        self._dist.fill(0)\n"
                "        return self._dist\n"
            ),
            path="src/repro/graph/engine.py",
            select="R9",
        )
        assert diags == []

    def test_module_global_stash_flagged(self, repo_root):
        diags = run(
            engine_loan(
                "_MEMO = {}\n"
                "def remember(e: BFSEngine, s: int) -> None:\n"
                "    dist = e.run(s)\n"
                "    _MEMO[s] = dist\n"
            ),
            select="R9",
        )
        assert len(diags) == 1

    def test_instance_store_flagged(self, repo_root):
        diags = run(
            engine_loan(
                "class Cache:\n"
                "    def grab(self, e: BFSEngine) -> None:\n"
                "        dist = e.run(0)\n"
                "        self.kept = dist\n"
            ),
            select="R9",
        )
        assert len(diags) == 1

    def test_derived_value_is_clean(self, repo_root):
        # Arithmetic allocates a fresh array; only the view is a loan.
        diags = run(
            engine_loan(
                "def consume(e: BFSEngine) -> np.ndarray:\n"
                "    dist = e.run(0)\n"
                "    return dist + 1\n"
            ),
            select="R9",
        )
        assert diags == []


# ---------------------------------------------------------------- R10
class TestSharedState:
    """R10: module-level mutable state must be manifest-registered."""

    def test_unregistered_mutable_cache_flagged(self):
        diags = run(
            wrap(
                "_cache = {}\n"
                "def put(k, v) -> None:\n"
                "    _cache[k] = v\n"
            ),
            select="R10",
        )
        assert len(diags) >= 1
        assert "_cache" in diags[0].message

    def test_registered_state_with_accessors_clean(self):
        diags = run(
            wrap(
                "_CACHE = {}\n"
                "def load_dataset(name):\n"
                "    if name not in _CACHE:\n"
                "        _CACHE[name] = name\n"
                "    return _CACHE[name]\n"
                "def clear_cache() -> None:\n"
                "    _CACHE.clear()\n"
            ),
            path="src/repro/datasets/loader.py",
            select="R10",
        )
        assert diags == []

    def test_access_outside_guard_helpers_flagged(self):
        diags = run(
            wrap(
                "_CACHE = {}\n"
                "def load_dataset(name):\n"
                "    return _CACHE.get(name)\n"
                "def clear_cache() -> None:\n"
                "    _CACHE.clear()\n"
                "def sneak(name) -> None:\n"
                "    _CACHE[name] = 1\n"
            ),
            path="src/repro/datasets/loader.py",
            select="R10",
        )
        assert len(diags) == 1
        assert "guard helpers" in diags[0].message

    def test_stale_manifest_entry_flagged(self):
        # The manifest registers _CACHE for this path; a module that no
        # longer defines it should be reported so the manifest shrinks.
        diags = run(
            wrap("def load_dataset(name):\n    return name\n"),
            path="src/repro/datasets/loader.py",
            select="R10",
        )
        assert len(diags) == 1
        assert "_CACHE" in diags[0].message

    def test_constant_never_mutated_clean(self):
        diags = run(
            wrap(
                "_TABLE = {'a': 1}\n"
                "def get(k):\n"
                "    return _TABLE[k]\n"
            ),
            select="R10",
        )
        assert diags == []

    def test_global_rebind_flagged(self):
        diags = run(
            wrap(
                "_state = 0\n"
                "def bump() -> None:\n"
                "    global _state\n"
                "    _state += 1\n"
            ),
            select="R10",
        )
        assert len(diags) >= 1


# ---------------------------------------------------------------- R11
class TestMutationContract:
    """R11: in-place parameter mutation must be declared via :mutates:."""

    def test_undeclared_mutation_flagged(self):
        diags = run(
            wrap(
                "def f(a: np.ndarray) -> None:\n"
                '    """Doc."""\n'
                "    a[0] = 1\n"
            ),
            select="R11",
        )
        assert len(diags) == 1
        assert ":mutates a:" in diags[0].message

    def test_declared_mutation_clean(self):
        diags = run(
            wrap(
                "def f(a: np.ndarray) -> None:\n"
                '    """Doc.\n\n    :mutates a: zeroed in place.\n    """\n'
                "    a[0] = 1\n"
            ),
            select="R11",
        )
        assert diags == []

    def test_stale_declaration_flagged(self):
        diags = run(
            wrap(
                "def f(a: np.ndarray) -> int:\n"
                '    """Doc.\n\n    :mutates a: but it does not.\n    """\n'
                "    return int(a[0])\n"
            ),
            select="R11",
        )
        assert len(diags) == 1

    def test_declaration_naming_non_param_flagged(self):
        diags = run(
            wrap(
                "def f(a: np.ndarray) -> None:\n"
                '    """Doc.\n\n    :mutates b: no such parameter.\n    """\n'
                "    a[0] = 1\n"
            ),
            select="R11",
        )
        # Both the bogus name and the undeclared real mutation fire.
        assert len(diags) == 2

    def test_unannotated_param_out_of_scope(self):
        # Without an ndarray-ish annotation the contract does not apply.
        diags = run(
            wrap(
                "def f(a) -> None:\n"
                '    """Doc."""\n'
                "    a[0] = 1\n"
            ),
            select="R11",
        )
        assert diags == []

    def test_fill_method_is_mutation(self):
        diags = run(
            wrap(
                "def f(a: np.ndarray) -> None:\n"
                '    """Doc."""\n'
                "    a.fill(0)\n"
            ),
            select="R11",
        )
        assert len(diags) == 1


# ------------------------------------------------------- W1 / W2 meta
class TestSuppressionInventory:
    def test_unused_suppression_warns(self):
        diags = run(
            wrap("X = 1  # reprolint: disable=R1\n"),
            select="W1",
        )
        assert len(diags) == 1
        assert "no longer suppresses" in diags[0].message

    def test_unknown_rule_code_warns(self):
        diags = run(
            wrap("X = 1  # reprolint: disable=R99\n"),
            select="W1",
        )
        assert len(diags) == 1
        assert "no known rule" in diags[0].message

    def test_used_suppression_is_silent(self):
        diags = run(
            wrap("def f(g: object) -> None:\n"
                 "    g.indptr = None  # reprolint: disable=R1 (fixture)\n"),
            select="W1",
        )
        assert diags == []

    def test_suppression_text_inside_string_ignored(self):
        # Suppression-shaped text in a string literal is data, not a
        # waiver — it must not count (and must not warn as unused).
        diags = run(
            wrap('X = "# reprolint: disable=R1"\n'),
            select="W1",
        )
        assert diags == []

    def test_strict_rule_needs_justification(self, repo_root):
        diags = run(
            engine_loan(
                "def consume(e: BFSEngine) -> np.ndarray:\n"
                "    dist = e.run(0)\n"
                "    return dist  # reprolint: disable=R9\n"
            ),
            select="W2",
        )
        assert len(diags) == 1
        assert "justification" in diags[0].message

    def test_justified_strict_suppression_clean(self, repo_root):
        diags = run(
            engine_loan(
                "def consume(e: BFSEngine) -> np.ndarray:\n"
                "    dist = e.run(0)\n"
                "    return dist"
                "  # reprolint: disable=R9 (caller consumes immediately)\n"
            ),
            select="W2",
        )
        assert diags == []

    def test_lax_rule_needs_no_justification(self):
        diags = run(
            wrap("def f(g: object) -> None:\n"
                 "    g.indptr = None  # reprolint: disable=R1\n"),
            select="W2",
        )
        assert diags == []
