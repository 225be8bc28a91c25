"""Fault injection: a worker SIGKILLed in the middle of a batch.

The pool must turn the death into a typed :class:`ParallelBackendError`
naming the worker, reap every worker, and leave the oracle usable: its
next batch runs on a rebuilt pool with the right answers.  The pool
never touches shared memory on the way (``SharedMemory`` is patched to
raise).  The kill is made deterministic by forking the pool while the
workers' lane-group loop (:func:`repro.graph.batch.lane_groups`) is
replaced by one that parks the first worker to call it, so the test
kills a worker that is provably inside a task.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.shared_memory
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.oracles import BFSOracle
from repro.errors import ParallelBackendError
from repro.graph.generators import barabasi_albert
from repro.parallel import pool as pool_mod
from repro.parallel.pool import pool_for, shutdown_pools

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected kernel reaches workers through fork",
)

#: Upper bound on every wait in this test.
_TIMEOUT = 30.0


def _park_first_caller(marker, real_lane_groups):
    """A ``lane_groups`` whose first caller (across all workers) writes
    its pid to ``marker`` and sleeps; every other call runs normally."""

    def lane_groups(graph, src, width, counter=None, rows=False):
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return real_lane_groups(graph, src, width, counter, rows)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        time.sleep(_TIMEOUT)

    return lane_groups


def _no_shared_memory(*args, **kwargs):
    raise AssertionError("the pool must not create shared memory")


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_worker_killed_mid_batch(tmp_path, monkeypatch):
    monkeypatch.setattr(
        multiprocessing.shared_memory, "SharedMemory", _no_shared_memory
    )
    graph = barabasi_albert(2000, 3, seed=3)
    # 100 sources plan 64-lane sweeps: two tasks, one per worker.
    sources = np.arange(100, dtype=np.int64)
    want = BFSOracle(graph).ecc_all(sources)

    marker = tmp_path / "parked.pid"
    oracle = BFSOracle(graph, backend="process", workers=2)
    with monkeypatch.context() as patch:
        patch.setattr(
            pool_mod,
            "lane_groups",
            _park_first_caller(str(marker), pool_mod.lane_groups),
        )
        pool = pool_for(graph, workers=2)  # forks with the parking kernel
    processes = list(pool._resources.processes)
    names = {proc.pid: proc.name for proc in processes}

    def kill_parked_worker():
        deadline = time.monotonic() + _TIMEOUT
        while time.monotonic() < deadline:
            if marker.exists() and marker.read_text():
                break
            time.sleep(0.01)
        else:
            return
        killed.append(int(marker.read_text()))
        os.kill(killed[0], signal.SIGKILL)

    killed = []
    killer = threading.Thread(target=kill_parked_worker)
    killer.start()
    try:
        with pytest.raises(ParallelBackendError) as failure:
            oracle.ecc_all(sources)
    finally:
        killer.join(timeout=_TIMEOUT)
    assert not killer.is_alive()
    assert killed, "no worker reached the parked kernel"

    assert names[killed[0]] in str(failure.value)
    assert pool.closed
    for proc in processes:
        proc.join(timeout=_TIMEOUT)
        assert proc.exitcode is not None
        assert _reaped(proc.pid)
    assert {proc.exitcode for proc in processes if proc.pid == killed[0]} == {
        -signal.SIGKILL
    }

    try:
        assert np.array_equal(oracle.ecc_all(sources), want)
        assert pool_for(graph, workers=2) is not pool
    finally:
        shutdown_pools()
