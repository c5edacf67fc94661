"""A chain node raising mid-walk: surfaced, never cached, recoverable.

Every grid point, serve miss and proof walks :class:`repro.kernel.batch.
LoopChain` nodes, so a node transition that raises is the evaluator's one
in-flight failure mode.  The engine must surface it (an exception from
``run_jobs``, from ``Session.evaluate``), must not cache any result of the
group whose walk raised, and a re-run without the fault must return the
golden result.
"""

from __future__ import annotations

import pytest

from repro.api import EvaluateRequest, LoopSpec, Session
from repro.bench import LATENCY, bench_grid
from repro.engine.cache import ResultCache
from repro.engine.jobs import evaluate_job
from repro.engine.pool import run_jobs
from repro.kernel.batch import _Node
from repro.machine.config import paper_config
from repro.workloads.kernels import all_kernels


class ChainFault(RuntimeError):
    """The injected node failure."""


def _faulty_spill_child(monkeypatch, victims):
    """Make the first spill transition of a walk over ``victims`` raise."""
    original = _Node.spill_child

    def spill_child(self):
        if self.chain.name in victims:
            raise ChainFault(f"injected fault in {self.chain.name}")
        return original(self)

    monkeypatch.setattr(_Node, "spill_child", spill_child)


@pytest.fixture(scope="module")
def machine():
    return paper_config(LATENCY)


@pytest.fixture(scope="module")
def loops():
    """A kernel that fits without spilling, then one that must spill."""
    kernels = sorted(all_kernels(), key=lambda k: len(k.graph))
    return [kernels[0], kernels[-1]]


@pytest.fixture(scope="module")
def jobs(loops, machine):
    return [
        evaluate_job(loop, mach, model, 8)
        for loop, mach, model, _budget in bench_grid(loops, machine)
    ]


@pytest.fixture(scope="module")
def golden(jobs):
    return run_jobs(jobs, workers=0, cache=None)


class TestRunJobs:
    def test_fault_surfaces_and_caches_nothing_of_its_group(
        self, jobs, golden, loops, monkeypatch
    ):
        faulty = loops[-1].name
        assert any(r.spilled_values for r in golden if r.loop_name == faulty)
        cache = ResultCache(directory=None)
        with monkeypatch.context() as patch:
            _faulty_spill_child(patch, {faulty})
            with pytest.raises(ChainFault):
                run_jobs(jobs, workers=0, cache=cache)
        for job, result in zip(jobs, golden):
            cached = cache.get(job)
            if job.loop.name == faulty:
                assert cached is None, job
            else:  # the group that finished before the fault
                assert cached == result, job
        assert run_jobs(jobs, workers=0, cache=cache) == golden
        # The clean re-run filled the cache: a warm pass is all hits.
        flags: list[bool] = []
        assert run_jobs(jobs, workers=0, cache=cache, cached_flags=flags) == (
            golden
        )
        assert all(flags)


class TestSession:
    def test_fault_surfaces_and_is_not_cached(self, loops, monkeypatch):
        faulty = loops[-1].name
        request = EvaluateRequest(
            loop=LoopSpec(kind="kernel", name=faulty),
            machine=None,
            model="unified",
            register_budget=8,
        )
        with Session() as session:
            with monkeypatch.context() as patch:
                _faulty_spill_child(patch, {faulty})
                with pytest.raises(ChainFault):
                    session.evaluate(request)
            assert session.engine.cache.stats.stores == 0
            response = session.evaluate(request)
            assert not response.cached
            again = session.evaluate(request)
            assert again.cached
        with Session() as clean:
            assert clean.evaluate(request) == response
