"""A pool worker killed mid-group: the map raises, caches nothing of it.

``execute_batch`` is patched before the pool forks, so the workers inherit
a version that SIGKILLs its own process on one loop's Swapped job -- in a
proof, after that loop's earlier points were already streamed to the
parent.  The map
must raise :class:`~repro.engine.pool.WorkerLost` promptly instead of
waiting for a result that never comes, the cache must hold no entry of the
killed group, and the next map on the same :class:`Engine` must succeed on
a fresh pool.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.check.coverage import CHECK_MODELS, run_static_validation
from repro.core.models import Model
from repro.engine import pool
from repro.engine.cache import ResultCache
from repro.engine.jobs import evaluate_job
from repro.engine.pool import Engine, WorkerLost, run_jobs
from repro.machine.config import paper_config
from repro.workloads.suite import perfect_club_like

pytestmark = pytest.mark.usefixtures("forked_workers")

#: How long a map may take to notice the lost worker.
DEADLINE_S = 10


@contextmanager
def deadline(seconds: int) -> Iterator[None]:
    """Fail the test instead of hanging it past ``seconds``."""

    def expired(_signum: int, _frame: object) -> None:
        raise TimeoutError(f"the map was still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def kill_worker_on(monkeypatch, victim: str) -> None:
    """Patch ``execute_batch`` to SIGKILL the worker on ``victim``'s
    Swapped job.  The parent never runs it: that would kill the tests."""
    original = pool.execute_batch
    parent = os.getpid()

    def killing(jobs, *args, **kwargs):
        if any(
            job.loop.name == victim and job.model == Model.SWAPPED.value
            for job in jobs
        ):
            assert os.getpid() != parent, "the map ran in-process"
            os.kill(os.getpid(), signal.SIGKILL)
        return original(jobs, *args, **kwargs)

    monkeypatch.setattr(pool, "execute_batch", killing)


@pytest.fixture(scope="module")
def machine():
    return paper_config(6)


@pytest.fixture(scope="module")
def loops():
    return list(perfect_club_like(8))


@pytest.fixture(scope="module")
def jobs(loops, machine):
    return [
        evaluate_job(loop, machine, model, budget)
        for loop in loops
        for model, budget in CHECK_MODELS
    ]


@pytest.fixture(scope="module")
def golden(jobs):
    return run_jobs(jobs, workers=0)


def test_run_jobs_raises_and_caches_nothing_of_the_killed_group(
    jobs, golden, loops, monkeypatch
):
    victim = loops[2].name
    cache = ResultCache(directory=None)
    with monkeypatch.context() as patch:
        kill_worker_on(patch, victim)
        start = time.perf_counter()
        with deadline(DEADLINE_S), pytest.raises(WorkerLost):
            run_jobs(jobs, workers=2, cache=cache)
        assert time.perf_counter() - start < DEADLINE_S
    assert multiprocessing.active_children() == []
    for job, result in zip(jobs, golden):
        cached = cache.get(job)
        if job.loop.name == victim:
            assert cached is None, job
        elif cached is not None:  # a group that finished before the kill
            assert cached == result, job
    assert run_jobs(jobs, workers=2, cache=cache) == golden


def test_next_map_on_the_engine_runs_on_a_fresh_pool(
    jobs, golden, loops, monkeypatch
):
    with Engine(workers=2, cache=None) as engine:
        with monkeypatch.context() as patch:
            kill_worker_on(patch, loops[-1].name)
            with deadline(DEADLINE_S), pytest.raises(WorkerLost):
                engine.map(jobs)
            broken = engine._pool
            assert broken is not None and broken.closed
        assert engine.map(jobs) == golden
        assert engine._pool is not broken and not engine._pool.closed
    assert multiprocessing.active_children() == []


def test_static_validation_raises(loops, monkeypatch):
    with monkeypatch.context() as patch:
        kill_worker_on(patch, loops[1].name)
        start = time.perf_counter()
        with deadline(DEADLINE_S), pytest.raises(WorkerLost):
            run_static_validation(
                loops=loops, engine=Engine(workers=2, cache=None)
            )
        assert time.perf_counter() - start < DEADLINE_S
    with Engine(workers=2, cache=None) as engine:
        result = run_static_validation(loops=loops, engine=engine)
    assert result.ok, result.format()
    assert multiprocessing.active_children() == []
