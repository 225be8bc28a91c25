"""Paired A/B runs of the end-to-end benchmark: a base ref against the working tree.

    python tools/bench_pairs.py --base HEAD --workload ed-powerlaw --pairs 10
    python tools/bench_pairs.py --base-dir ../parent --workload ed-powerlaw \\
        --workload batch-ecc --seed 41 --json pairs.json

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S`` once from
the base checkout and once from the working tree, each in a fresh
process, alternating which side runs first.  The base checkout is a
detached ``git worktree`` of ``--base``, added in a temporary directory
and removed afterwards; ``--base-dir`` names an existing checkout
instead.  Both sides run the benchmark code of their own checkout with
the same arguments.

For every end-to-end metric in the working tree's ``BENCHMARK.json`` the
report gives each side's median and quartiles, the ratio of the medians
(change / base) and the change's wins: the pairs whose change value is
better, ties counting for neither side.  A gain is ``claimable`` when the
change wins at least nine tenths of the pairs and the medians differ by
more than the base's quartile distance; ``within_bound`` says whether
the change's median is no worse than the base's by more than the
metric's bound.  Failed operations are summed per side.

Only the standard library is used, so any interpreter that runs the
benchmark runs this script.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = Path("benchmarks") / "e2e" / "run.py"

#: One benchmark run: ``(checkout, workload, seed) -> final JSON line``.
Runner = Callable[[Path, str, int], Dict[str, Any]]


def run_benchmark(checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
    """Run one workload from ``checkout``; its last stdout line, parsed."""
    proc = subprocess.run(
        [
            sys.executable,
            str(checkout / RUN_PY),
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{checkout}: {workload} printed nothing (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return dict(json.loads(lines[-1]))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` with the inclusive method (one value: itself)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """One metric over paired runs: ``base[i]`` and ``change[i]`` are a pair."""
    if len(base) != len(change) or not base:
        raise ValueError("compare needs the same, non-zero number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    return {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": c_med / b_med if b_med else None,
        "wins": wins,
        "pairs": len(base),
        "claimable": wins >= 0.9 * len(base) and abs(c_med - b_med) > b_q3 - b_q1,
        "within_bound": worse_by <= bound,
    }


def metric_value(run: Dict[str, Any], name: str) -> Optional[float]:
    """The value of metric ``name`` in a run's JSON line, if it has one."""
    metric = run["metrics"].get(name)
    return None if metric is None else float(metric["value"])


def run_pairs(
    base_dir: Path,
    change_dir: Path,
    workload: str,
    pairs: int,
    seed: int,
    runner: Runner = run_benchmark,
    log: Callable[[str], None] = lambda line: None,
) -> Dict[str, List[Dict[str, Any]]]:
    """``{"base": [...], "change": [...]}``: one run per side per pair."""
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    sides = {"base": base_dir, "change": change_dir}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(runner(sides[side], workload, seed))
        log(
            f"{workload} pair {pair + 1}/{pairs}: "
            + ", ".join(
                f"{side} pass_s={metric_value(runs[side][-1], 'pass_s')}"
                for side in order
            )
        )
    return runs


def summarize(
    runs: Dict[str, List[Dict[str, Any]]], metrics: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Per-metric comparison of one workload's paired runs."""
    out: Dict[str, Any] = {
        "failed": {side: sum(int(r.get("failed", 0)) for r in rs) for side, rs in runs.items()},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [v for v in (metric_value(r, name) for r in rs) if v is not None]
            for side, rs in runs.items()
        }
        if values["base"] and len(values["base"]) == len(values["change"]):
            out["metrics"][name] = compare(
                values["base"], values["change"], metric["better"], metric["bound"]
            )
    return out


def format_report(workload: str, summary: Dict[str, Any]) -> List[str]:
    lines = [
        f"{workload}: failed operations base={summary['failed']['base']} "
        f"change={summary['failed']['change']}",
        f"  {'metric':<12} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30}"
        f" {'ratio':>7} {'wins':>6}  verdict",
    ]
    for name, cmp in summary["metrics"].items():
        b, c = cmp["base"], cmp["change"]
        ratio = f"{cmp['ratio']:.3f}" if cmp["ratio"] is not None else "-"
        verdict = ("gain" if cmp["claimable"] else "no claim") + (
            "" if cmp["within_bound"] else ", OUT OF BOUND"
        )
        lines.append(
            f"  {name:<12} {b['median']:>12.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
            f"{'':>1} {c['median']:>12.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f" {ratio:>7} {cmp['wins']:>3}/{cmp['pairs']:<2}  {verdict}"
        )
    return lines


@contextlib.contextmanager
def worktree(ref: str) -> Iterator[Path]:
    """A detached ``git worktree`` of ``ref`` in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        path = Path(tmp) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(path), ref],
            cwd=ROOT,
            check=True,
            capture_output=True,
        )
        try:
            yield path
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(path)],
                cwd=ROOT,
                check=False,
                capture_output=True,
            )


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = parser.add_mutually_exclusive_group()
    base.add_argument("--base", default="HEAD", help="git ref of the base side (default HEAD)")
    base.add_argument("--base-dir", type=Path, help="an existing checkout to use as the base side")
    parser.add_argument(
        "--workload", action="append", required=True, help="workload name; repeat for several"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="write the per-workload summaries here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv: Optional[Sequence[str]] = None, runner: Runner = run_benchmark) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {w["name"] for w in bench["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        print(f"bench_pairs: unknown workload(s) {unknown}; known: {sorted(known)}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def measure(base_dir: Path) -> Dict[str, Any]:
        return {
            workload: summarize(
                run_pairs(base_dir, ROOT, workload, args.pairs, args.seed, runner, log),
                bench["end_to_end"],
            )
            for workload in args.workload
        }

    if args.base_dir is not None:
        summaries = measure(args.base_dir.resolve())
    else:
        with worktree(args.base) as base_dir:
            summaries = measure(base_dir)
    for workload, summary in summaries.items():
        print("\n".join(format_report(workload, summary)))
    if args.json is not None:
        args.json.write_text(json.dumps(summaries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
