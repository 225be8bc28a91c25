"""``bench_bfs_engine.py --out PATH`` writes every artifact beside PATH.

A smoke run pointed at a scratch directory must leave the committed
repo-root scorecards byte for byte as they were.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_bfs_engine.py"
ARTIFACTS = (
    "BENCH_bfs_engine.json",
    "BENCH_parallel_backend.json",
    "BENCH_trace_ifecc.jsonl",
)


def _snapshot():
    return {
        name: (REPO_ROOT / name).read_bytes()
        if (REPO_ROOT / name).exists()
        else None
        for name in ARTIFACTS
    }


def test_smoke_out_redirects_every_artifact(tmp_path):
    before = _snapshot()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--smoke",
            "--out",
            str(tmp_path / "engine.json"),
            "--sources",
            "1",
            "--repeats",
            "1",
            "--workers",
            "1",
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    assert _snapshot() == before
    written = {path.name for path in tmp_path.iterdir()}
    assert written == {
        "engine.json",
        "BENCH_parallel_backend.json",
        "BENCH_trace_ifecc.jsonl",
    }
