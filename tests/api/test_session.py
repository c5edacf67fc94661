"""Session semantics: numbers match the core, concurrency shares the cache."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    EvaluateRequest,
    ExperimentRequest,
    LoopSpec,
    MachineSpec,
    PressureRequest,
    ReportRequest,
    RequestValidationError,
    ScheduleRequest,
    Session,
    SweepRequest,
    UnknownExperimentError,
)
from repro.core.models import Model
from repro.engine.jobs import evaluate_job
from repro.engine.pool import run_jobs
from repro.engine.sweep import format_outcome, named_sweep, run_sweep
from repro.machine.config import paper_config
from repro.pipeline.pipelines import run_evaluation, run_pressure
from repro.workloads.kernels import make_kernel

DAXPY = LoopSpec(kind="kernel", name="daxpy")
HYDRO = LoopSpec(kind="kernel", name="hydro_fragment")


@pytest.fixture()
def session():
    with Session() as s:
        yield s


class TestNumbersMatchTheCore:
    def test_pressure_matches_direct_pipeline(self, session):
        response = session.pressure(PressureRequest(loop=DAXPY))
        direct = run_pressure(make_kernel("daxpy"), paper_config(3))
        assert (response.unified, response.partitioned, response.swapped) == (
            direct.unified,
            direct.partitioned,
            direct.swapped,
        )
        assert response.ii == direct.ii
        assert response.machine == paper_config(3).name

    def test_evaluate_matches_direct_pipeline(self, session):
        request = EvaluateRequest(
            loop=HYDRO, model="swapped", register_budget=16
        )
        response = session.evaluate(request)
        direct = run_evaluation(
            make_kernel("hydro_fragment"),
            paper_config(3),
            Model.SWAPPED,
            16,
        )
        assert response.ii == direct.ii
        assert response.spilled_values == direct.spilled_values
        assert response.fits == direct.fits
        assert response.registers_required == direct.requirement.registers

    def test_schedule_reports_shape(self, session):
        response = session.schedule(
            ScheduleRequest(
                loop=LoopSpec(kind="example"),
                machine=MachineSpec(kind="example"),
            )
        )
        assert response.ii == 1  # the paper's Section 4.1 example
        assert response.mii <= response.ii
        assert response.n_ops == 7  # L1 L2 M3 A4 M5 A6 S7
        assert response.kernel  # rendered kernel rides along

    def test_sweep_text_matches_direct_run(self, session):
        request = SweepRequest(name="rf-size", n_loops=3)
        response = session.sweep(request)
        direct = format_outcome(
            run_sweep(named_sweep("rf-size", n_loops=3))
        )
        # Strip the timing footer: wall seconds differ run to run.
        strip = lambda text: text[: text.rfind("points in")]  # noqa: E731
        assert strip(response.text) == strip(direct)
        assert len(response.headers) == len(response.rows[0])


class TestChainMemo:
    """Point requests share a loop's chain; sweeps keep none."""

    def test_one_loops_points_walk_one_chain(self, session, monkeypatch):
        from repro.kernel import batch as kbatch

        built = []
        original = kbatch.LoopChain

        class CountingChain(original):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(kbatch, "LoopChain", CountingChain)
        for model in ("unified", "partitioned", "swapped"):
            session.evaluate(
                EvaluateRequest(loop=HYDRO, model=model, register_budget=16)
            )
        assert len(built) == 1
        assert [chain.name for chain in session.chains.values()] == [
            "hydro_fragment"
        ]

    def test_sweeps_leave_the_memo_empty(self, session):
        session.sweep(SweepRequest(name="rf-size", n_loops=3))
        assert session.chains == {}


class TestRunJob:
    """A point request is one engine call under the session lock."""

    @staticmethod
    def _job(budget=16):
        return evaluate_job(
            make_kernel("hydro_fragment"), paper_config(3), Model.SWAPPED,
            budget,
        )

    def test_result_matches_run_jobs_then_hits(self, session):
        job = self._job()
        result, cached = session._run_job(job)
        assert not cached
        assert result == run_jobs([job], workers=0, cache=None)[0]
        again, cached = session._run_job(job)
        assert cached  # the engine's provenance flag, not a guess
        assert again == result

    def test_engine_failure_reaches_the_caller(self, session):
        served = session.requests_served
        with pytest.raises(AttributeError):
            session._run_job(object())  # not an EvalJob: the engine chokes
        assert session.requests_served == served
        # The lock was released: the next request runs.
        assert session.pressure(PressureRequest(loop=DAXPY)).unified > 0

    def test_concurrent_points_are_each_counted_once(self, session):
        requests = [
            EvaluateRequest(loop=DAXPY, model="unified", register_budget=b)
            for b in (8, 12, 16, 20)
        ] * 2
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(session.evaluate, requests))
        assert session.requests_served == len(requests)
        assert session.engine.cache.stats.hits >= 4

    def test_session_stays_usable_after_close(self, session):
        first = session.pressure(PressureRequest(loop=DAXPY))
        session.close()
        again = session.pressure(PressureRequest(loop=DAXPY))
        assert again.cached
        assert again.unified == first.unified


class TestSessionDefaults:
    def test_default_machine_fills_none(self):
        with Session(machine=MachineSpec(kind="paper", latency=6)) as s:
            response = s.pressure(PressureRequest(loop=DAXPY))
        assert response.machine == paper_config(6).name

    def test_request_machine_overrides_default(self):
        with Session(machine=MachineSpec(kind="paper", latency=6)) as s:
            response = s.pressure(
                PressureRequest(loop=DAXPY, machine=MachineSpec(latency=3))
            )
        assert response.machine == paper_config(3).name

    def test_policy_defaults_ride_into_jobs(self):
        with Session(victim_policy="first") as s:
            response = s.evaluate(
                EvaluateRequest(loop=HYDRO, model="unified",
                                register_budget=8)
            )
            # Same request under an explicit matching policy: same key,
            # so the session's default demonstrably reached the job.
            explicit = s.evaluate(
                EvaluateRequest(loop=HYDRO, model="unified",
                                register_budget=8, victim_policy="first")
            )
        assert explicit.cached
        assert response.ii == explicit.ii

    def test_bad_session_default_fails_at_init(self):
        with pytest.raises(ValueError, match="victim policy"):
            Session(victim_policy="rng")


class TestDispatch:
    def test_submit_routes_by_type(self, session):
        response = session.submit(PressureRequest(loop=DAXPY))
        assert response.unified > 0

    def test_submit_rejects_foreign_types(self, session):
        with pytest.raises(RequestValidationError, match="unsupported"):
            session.submit(object())

    def test_submit_dict_is_wire_symmetric(self, session):
        request = PressureRequest(loop=DAXPY)
        out = session.submit_dict(request.to_dict())
        assert out["type"] == "pressure.response"
        assert out["unified"] == session.pressure(request).unified

    def test_unknown_experiment_surfaces(self, session):
        with pytest.raises(UnknownExperimentError):
            session.experiment(ExperimentRequest(name="figure0"))

    def test_experiment_params_validated_before_running(self, session):
        with pytest.raises(RequestValidationError, match="unknown param"):
            session.experiment(
                ExperimentRequest(name="figure6", params={"zoom": 2})
            )

    def test_stats_counts_requests(self, session):
        before = session.stats()["requests_served"]
        session.pressure(PressureRequest(loop=DAXPY))
        assert session.stats()["requests_served"] == before + 1


class TestConcurrency:
    def test_two_threads_share_one_cache(self, session):
        """Two clients of one session: one computes, the other hits."""
        request = EvaluateRequest(
            loop=HYDRO, model="partitioned", register_budget=16
        )
        barrier = threading.Barrier(2)

        def submit():
            barrier.wait()
            return session.evaluate(request)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(
                lambda _: submit(), range(2)
            )
        # Identical numbers either way...
        assert first.ii == second.ii
        assert first.registers_required == second.registers_required
        # ...and exactly one of the two paid for them.
        assert sorted([first.cached, second.cached]) == [False, True]
        assert session.engine.cache.stats.hits >= 1

    def test_many_threads_many_requests_consistent(self, session):
        requests = [
            EvaluateRequest(loop=DAXPY, model=model, register_budget=budget)
            for model in ("unified", "partitioned", "swapped")
            for budget in (8, 16)
        ] * 3  # every point requested three times, interleaved
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(session.evaluate, requests))
        by_key = {}
        for request, response in zip(requests, responses):
            key = (request.model, request.register_budget)
            by_key.setdefault(key, []).append(
                (response.ii, response.registers_required)
            )
        for key, values in by_key.items():
            assert len(set(values)) == 1, key
        # 6 distinct points, 18 requests: at least 12 were cache hits.
        assert session.engine.cache.stats.hits >= 12


class TestReport:
    def test_report_through_session(self, session, tmp_path):
        response = session.report(
            ReportRequest(
                n_loops=12,
                fmt="md",
                out_dir=str(tmp_path),
                include_text=True,
                stamp=False,
            )
        )
        assert response.checks_gated > 0
        assert response.summary.startswith("checks:")
        assert (tmp_path / "report.md").exists()
        assert response.text and "reproduction report" in response.text
        assert response.path == str(tmp_path / "report.md")


class TestProofsStayInProcess:
    """A session's engine is serial: a proof through it forks nothing."""

    @staticmethod
    def _forbid_pools(monkeypatch):
        from repro.engine import pool

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a session proof started a worker pool")

        monkeypatch.setattr(pool, "WorkerPool", forbidden)

    def test_static_validate_request_starts_no_child(self, monkeypatch):
        import multiprocessing

        from repro.api import ValidateRequest

        self._forbid_pools(monkeypatch)
        with Session() as session:
            response = session.validate(
                ValidateRequest(
                    loop=HYDRO, model="swapped", register_budget=8,
                    tiers=("batch",), static=True,
                )
            )
        assert response.ok, response.text
        assert response.static_findings == 0
        assert multiprocessing.active_children() == []

    def test_static_check_experiment_proves_on_the_session_engine(
        self, monkeypatch
    ):
        import multiprocessing

        self._forbid_pools(monkeypatch)
        with Session() as session:
            response = session.experiment(
                ExperimentRequest(name="check", params={"loops": 3})
            )
        assert "12 points statically verified, all proved" in response.text
        assert multiprocessing.active_children() == []
