"""Admission control and the coalescing dispatcher."""

import threading

import pytest

from repro.api import Session
from repro.api.dispatch import BatchDispatcher, InflightGate, TokenBucket
from repro.api.types import ServerSaturatedError
from repro.engine.jobs import pressure_job
from repro.machine.config import paper_config
from repro.workloads.kernels import kernel_names, make_kernel


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal_with_wait_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s

    def test_refill_restores_admission(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(3600)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_zero_rate_disables_limiting(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.try_acquire() == 0.0 for _ in range(1000))

    def test_sub_one_burst_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    def test_default_burst_tracks_rate(self):
        assert TokenBucket(rate=8.0).burst == 8.0
        assert TokenBucket(rate=0.25).burst == 1.0


class TestInflightGate:
    def test_admits_to_limit_then_refuses(self):
        gate = InflightGate(2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        assert gate.depth == 2
        gate.exit()
        assert gate.try_enter()

    def test_context_manager_raises_429_error(self):
        gate = InflightGate(1, retry_after=2.5)
        with gate:
            with pytest.raises(ServerSaturatedError) as excinfo:
                with gate:
                    pass
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 2.5
        assert gate.depth == 0

    def test_exit_on_exception_path(self):
        gate = InflightGate(1)
        with pytest.raises(RuntimeError):
            with gate:
                raise RuntimeError("boom")
        assert gate.depth == 0

    def test_zero_limit_disables_bound(self):
        gate = InflightGate(0)
        for _ in range(100):
            assert gate.try_enter()


class TestBatchDispatcher:
    @pytest.fixture()
    def session(self):
        with Session() as session:
            yield session

    def _jobs(self, count):
        machine = paper_config(6)
        names = list(kernel_names())
        return [
            pressure_job(make_kernel(names[i % len(names)]), machine)
            for i in range(count)
        ]

    def test_results_match_direct_execution(self, session):
        dispatcher = BatchDispatcher(session)
        try:
            jobs = self._jobs(3)
            direct = session.engine.map(jobs)
            got = [dispatcher.submit(job) for job in jobs]
            # Second submission of each job is a cache hit by provenance.
            assert [r for r, _cached in got[: len(jobs)]] == direct
            assert all(cached for _r, cached in got)
        finally:
            dispatcher.close()

    def test_concurrent_submits_coalesce_into_fewer_batches(self, session):
        dispatcher = BatchDispatcher(session, linger=0.05)
        try:
            jobs = self._jobs(8)
            results = [None] * len(jobs)

            def submit(i):
                results[i] = dispatcher.submit(jobs[i])

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(len(jobs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(r is not None for r in results)
            assert dispatcher.jobs_batched == len(jobs)
            assert dispatcher.batches_run < len(jobs)
        finally:
            dispatcher.close()

    def test_session_routes_through_dispatcher(self, session):
        from repro.api.types import PressureRequest, LoopSpec

        dispatcher = BatchDispatcher(session)
        session.dispatcher = dispatcher
        response = session.pressure(
            PressureRequest(loop=LoopSpec(kind="kernel", name="daxpy"))
        )
        assert response.cached is False
        again = session.pressure(
            PressureRequest(loop=LoopSpec(kind="kernel", name="daxpy"))
        )
        assert again.cached is True
        assert again.unified == response.unified
        assert dispatcher.jobs_batched >= 2
        session.close()  # must close the dispatcher too
        assert session.dispatcher is None

    def test_batches_walk_the_session_chain_memo(self, session):
        from repro.core.models import Model
        from repro.engine.jobs import evaluate_job
        from repro.engine.pool import run_jobs

        dispatcher = BatchDispatcher(session)
        try:
            loop = make_kernel("hydro_fragment")
            jobs = [
                evaluate_job(loop, paper_config(6), model, 16)
                for model in (Model.UNIFIED, Model.SWAPPED)
            ]
            first, _cached = dispatcher.submit(jobs[0])
            (chain,) = session.chains.values()
            second, cached = dispatcher.submit(jobs[1])
            assert not cached
            (again,) = session.chains.values()
            assert again is chain  # the second batch walked the same chain
            assert [first, second] == run_jobs(jobs, workers=0)
        finally:
            dispatcher.close()

    def test_engine_failure_reaches_every_submitter(self, session):
        dispatcher = BatchDispatcher(session)
        try:
            with pytest.raises(Exception):
                dispatcher.submit(object())  # not an EvalJob: engine chokes
        finally:
            dispatcher.close()

    def test_submit_after_close_is_an_error(self, session):
        dispatcher = BatchDispatcher(session)
        dispatcher.close()
        with pytest.raises(RuntimeError):
            dispatcher.submit(self._jobs(1)[0])

    def test_knob_validation(self, session):
        with pytest.raises(ValueError):
            BatchDispatcher(session, linger=-0.1)
        with pytest.raises(ValueError):
            BatchDispatcher(session, max_batch=0)
