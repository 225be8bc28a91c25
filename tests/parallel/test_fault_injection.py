"""Fault injection: a worker SIGKILLed in the middle of a batch.

The pool must turn the death into a typed :class:`ParallelBackendError`
naming the worker, unlink both shared-memory segments, reap every
worker, and leave the oracle usable: its next batch runs on a rebuilt
pool.  The kill is made deterministic by forking the pool while the
``dist`` kernel is replaced by one that parks the first worker to call
it, so the test kills a worker that is provably inside a task.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.oracles import BFSOracle
from repro.errors import ParallelBackendError
from repro.graph import batch as batch_mod
from repro.graph.generators import barabasi_albert
from repro.parallel.pool import pool_for, shutdown_pools
from repro.parallel.shm import shared_memory_available

pytestmark = [
    pytest.mark.skipif(
        not shared_memory_available(),
        reason="multiprocessing.shared_memory unavailable on this platform",
    ),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the injected kernel reaches workers through fork",
    ),
]

#: Upper bound on every wait in this test.
_TIMEOUT = 30.0


def _park_first_caller(marker, real_kernel):
    """A ``dist`` kernel whose first caller (across all workers) writes
    its pid to ``marker`` and sleeps; every other call runs normally."""

    def kernel(graph, src, out, counter=None, width=0):
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return real_kernel(graph, src, out, counter, width)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        time.sleep(_TIMEOUT)

    return kernel


def _segment_exists(name):
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def test_worker_killed_mid_batch(tmp_path, monkeypatch):
    graph = barabasi_albert(2000, 3, seed=3)
    # 100 sources plan 64-lane sweeps: two tasks, one per worker.
    sources = np.arange(100, dtype=np.int64)
    want = BFSOracle(graph).distance_rows(sources)

    marker = tmp_path / "parked.pid"
    monkeypatch.setattr(
        batch_mod,
        "fill_distance_rows",
        _park_first_caller(str(marker), batch_mod.fill_distance_rows),
    )
    oracle = BFSOracle(graph, backend="process", workers=2)
    pool = pool_for(graph, workers=2)  # forks with the parking kernel
    monkeypatch.undo()
    resources = pool._resources
    processes = list(resources.processes)
    names = {proc.pid: proc.name for proc in processes}
    segments = [resources.graph_share.name]

    def kill_parked_worker():
        deadline = time.monotonic() + _TIMEOUT
        while time.monotonic() < deadline:
            if marker.exists() and marker.read_text():
                break
            time.sleep(0.01)
        else:
            return
        segments.append(resources.out_segment.name)
        killed.append(int(marker.read_text()))
        os.kill(killed[0], signal.SIGKILL)

    killed = []
    killer = threading.Thread(target=kill_parked_worker)
    killer.start()
    try:
        with pytest.raises(ParallelBackendError) as failure:
            oracle.distance_rows(sources)
    finally:
        killer.join(timeout=_TIMEOUT)
    assert not killer.is_alive()
    assert killed, "no worker reached the parked kernel"

    assert names[killed[0]] in str(failure.value)
    assert pool.closed
    assert len(segments) == 2
    for name in segments:
        assert not _segment_exists(name)
    for proc in processes:
        proc.join(timeout=_TIMEOUT)
        assert proc.exitcode is not None
    assert {proc.exitcode for proc in processes if proc.pid == killed[0]} == {
        -signal.SIGKILL
    }

    try:
        assert np.array_equal(oracle.distance_rows(sources), want)
        assert pool_for(graph, workers=2) is not pool
    finally:
        shutdown_pools()
