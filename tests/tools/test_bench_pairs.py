"""``tools/bench_pairs.py``: pair order, statistics and verdicts.

The benchmark itself is replaced by a fake runner, so these tests run no
workload.  The ``--base`` worktree is tested on a throwaway two-commit
repository, never on this checkout.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
assert _SPEC is not None and _SPEC.loader is not None
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


class FakeRunner:
    """Returns scripted ``pass_s`` values and records the order of the runs.

    A negative change value is returned as its magnitude, with one
    failed operation.
    """

    def __init__(self, base_dir: Path, values: Dict[str, List[float]]) -> None:
        self.base_dir = base_dir
        self.values = {side: list(v) for side, v in values.items()}
        self.calls: List[Tuple[str, str, int]] = []

    def __call__(self, checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
        side = "base" if checkout == self.base_dir else "change"
        self.calls.append((side, workload, seed))
        pass_s = self.values[side].pop(0)
        return {
            "correct": True,
            "attempted": 3,
            "failed": 1 if side == "change" and pass_s < 0 else 0,
            "metrics": {
                "pass_s": {"value": abs(pass_s), "unit": "s"},
                "accuracy": {"value": 1.0, "unit": "ratio"},
            },
        }


def test_pairs_alternate_which_side_runs_first(tmp_path: Path) -> None:
    runner = FakeRunner(tmp_path, {"base": [1.0] * 4, "change": [0.5] * 4})
    runs = bench_pairs.run_pairs(tmp_path, tmp_path / "x", "ed-powerlaw", 4, 7, runner)
    assert [side for side, _, _ in runner.calls] == [
        "base", "change", "change", "base", "base", "change", "change", "base",
    ]
    assert {(w, s) for _, w, s in runner.calls} == {("ed-powerlaw", 7)}
    assert len(runs["base"]) == len(runs["change"]) == 4


def test_quartiles() -> None:
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_compare_counts_wins_without_ties_and_claims() -> None:
    base = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    change = [0.7, 0.72, 0.69, 0.71, 0.7, 0.7, 0.73, 0.7, 0.69, 1.0]
    cmp = bench_pairs.compare(base, change, "lower", 0.24)
    assert cmp["wins"] == 9 and cmp["pairs"] == 10  # the tie counts for neither
    assert cmp["claimable"] and cmp["within_bound"]
    assert cmp["ratio"] == pytest.approx(0.70 / 1.0)
    # The same numbers for a higher-is-better metric: a loss, out of bound.
    cmp = bench_pairs.compare(base, change, "higher", 0.24)
    assert cmp["wins"] == 0 and not cmp["claimable"] and not cmp["within_bound"]


def test_compare_needs_paired_runs() -> None:
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0], [1.0, 2.0], "lower", 0.1)


def test_spread_wider_than_the_gain_is_no_claim() -> None:
    base = [1.0, 2.0, 1.0, 2.0]
    change = [0.9, 1.9, 0.9, 1.9]
    cmp = bench_pairs.compare(base, change, "lower", 0.24)
    assert cmp["wins"] == 4 and not cmp["claimable"]


def test_main_reports_every_workload(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    runner = FakeRunner(
        tmp_path,
        {"base": [1.0, 1.0, 1.2, 1.1], "change": [0.8, -0.7, 0.9, 0.8]},
    )
    out = tmp_path / "pairs.json"
    argv = ["--base-dir", str(tmp_path), "--workload", "ed-powerlaw", "--pairs", "2"]
    argv += ["--workload", "batch-ecc", "--json", str(out)]
    assert bench_pairs.main(argv, runner=runner) == 0
    summaries = json.loads(out.read_text())
    assert sorted(summaries) == ["batch-ecc", "ed-powerlaw"]
    assert summaries["ed-powerlaw"]["failed"] == {"base": 0, "change": 1}
    assert summaries["ed-powerlaw"]["metrics"]["pass_s"]["wins"] == 2
    assert "setup_s" not in summaries["ed-powerlaw"]["metrics"]
    report = capsys.readouterr().out
    assert "ed-powerlaw: failed operations base=0 change=1" in report
    assert "pass_s" in report and "accuracy" in report


def test_unknown_workload_is_rejected(tmp_path: Path) -> None:
    runner = FakeRunner(tmp_path, {"base": [], "change": []})
    argv = ["--base-dir", str(tmp_path), "--workload", "no-such-workload"]
    assert bench_pairs.main(argv, runner=runner) == 2
    assert runner.calls == []


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_worktree_checks_out_the_base_ref_and_removes_it(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for text in ("old\n", "new\n"):
        (repo / "f.txt").write_text(text, encoding="utf-8")
        _git(repo, "add", "f.txt")
        _git(repo, "commit", "-q", "-m", text.strip())
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    with bench_pairs.worktree("HEAD~1") as base:
        assert (base / "f.txt").read_text(encoding="utf-8") == "old\n"
        assert str(base) in _git(repo, "worktree", "list")
    assert not base.exists()
    assert str(base) not in _git(repo, "worktree", "list")
    assert (repo / "f.txt").read_text(encoding="utf-8") == "new\n"

    with pytest.raises(subprocess.CalledProcessError):
        with bench_pairs.worktree("no-such-ref"):
            pass  # pragma: no cover - never entered
