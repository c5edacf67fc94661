"""Pool execution: serial/pooled equality, caching, ordering, ModelRun parity."""

import gc

import pytest

from repro.analysis.performance import ModelRun
from repro.core.models import Model
from repro.engine.cache import ResultCache
from repro.engine.jobs import evaluate_job, execute_job, pressure_job
from repro.engine.pool import Engine, run_jobs, serial_engine
from repro.machine.config import paper_config
from repro.workloads.suite import quick_suite


@pytest.fixture(scope="module")
def machine():
    return paper_config(6)


@pytest.fixture(scope="module")
def loops():
    return list(quick_suite(10))


@pytest.fixture(scope="module")
def jobs(loops, machine):
    return [pressure_job(loop, machine) for loop in loops] + [
        evaluate_job(loop, machine, Model.SWAPPED, 24) for loop in loops
    ]


class TestRunJobs:
    def test_pool_equals_serial(self, jobs):
        serial = run_jobs(jobs, workers=0)
        pooled = run_jobs(jobs, workers=2)
        assert serial == pooled

    def test_results_in_job_order(self, jobs, loops):
        results = run_jobs(jobs, workers=2)
        assert [r.loop_name for r in results] == [
            loop.name for loop in loops
        ] * 2

    def test_negative_workers_rejected(self, jobs):
        with pytest.raises(ValueError):
            run_jobs(jobs, workers=-1)

    def test_duplicate_jobs_computed_once(self, machine, loops):
        cache = ResultCache(directory=None)
        jobs = [pressure_job(loops[0], machine) for _ in range(5)]
        results = run_jobs(jobs, workers=0, cache=cache)
        assert len(set(map(id, results))) <= 2  # one compute + cached reuse
        assert cache.stats.stores == 1  # duplicates are not re-stored
        assert len({r.unified for r in results}) == 1

    def test_progress_reports_every_job(self, jobs):
        seen = []
        run_jobs(jobs, workers=0, progress=lambda done, total: seen.append(
            (done, total)
        ))
        assert seen[-1] == (len(jobs), len(jobs))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_cache_short_circuits_second_run(self, tmp_path, jobs):
        cache = ResultCache(directory=tmp_path / "c")
        cold = run_jobs(jobs, workers=2, cache=cache)
        assert cache.stats.misses == len(jobs)
        warm_cache = ResultCache(directory=tmp_path / "c")
        warm = run_jobs(jobs, workers=2, cache=warm_cache)
        assert warm_cache.stats.hits == len(jobs)
        assert warm_cache.stats.misses == 0
        assert cold == warm


def _model_run(engine, loops, machine, model, budget):
    """A workload under one model through ``Engine.map``, as a ModelRun."""
    evaluations = engine.map(
        [evaluate_job(loop, machine, model, budget) for loop in loops]
    )
    return ModelRun(
        model=model,
        machine=machine,
        register_budget=budget,
        evaluations=tuple(evaluations),
    )


def _pressure_jobs(loops, machine):
    return [pressure_job(loop, machine) for loop in loops]


class TestEngine:
    def test_engine_model_run_matches_reference(self, loops, machine):
        """The engine's ModelRun against the dict reference, per loop."""
        via_engine = _model_run(
            serial_engine(), loops, machine, Model.UNIFIED, 24
        )
        direct = ModelRun(
            model=Model.UNIFIED,
            machine=machine,
            register_budget=24,
            evaluations=tuple(
                execute_job(evaluate_job(loop, machine, Model.UNIFIED, 24))
                for loop in loops
            ),
        )
        assert via_engine.cycles == direct.cycles
        assert via_engine.total_spills == direct.total_spills
        assert via_engine.loops_spilled == direct.loops_spilled
        assert via_engine.loops_not_fitting == direct.loops_not_fitting

    def test_run_model_pooled_matches_serial(self, loops, machine):
        with Engine(workers=2) as engine:
            pooled = _model_run(engine, loops, machine, Model.SWAPPED, 24)
        serial = _model_run(
            Engine(workers=0), loops, machine, Model.SWAPPED, 24
        )
        assert pooled.evaluations == serial.evaluations

    def test_shared_engine_collapses_repeats(self, loops, machine):
        engine = serial_engine()
        engine.map(_pressure_jobs(loops, machine))
        before = engine.cache.stats.misses
        engine.map(_pressure_jobs(loops, machine))  # a second map, warm
        assert engine.cache.stats.misses == before
        assert engine.cache.stats.hits >= len(loops)

    def test_jobs_run_counter(self, loops, machine):
        engine = serial_engine()
        engine.map(_pressure_jobs(loops, machine))
        assert engine.jobs_run == len(loops)

    def test_worker_pool_reused_across_maps(self, loops, machine):
        with Engine(workers=2) as engine:
            engine.map(_pressure_jobs(loops, machine))
            first = engine._pool
            _model_run(engine, loops, machine, Model.UNIFIED, 24)
            assert engine._pool is first is not None
        assert engine._pool is None  # context exit released the workers

    def test_dropped_engine_stops_its_workers(self, loops, machine):
        """An engine dropped without close() leaves no process behind."""
        engine = Engine(workers=2)
        engine.map(_pressure_jobs(loops, machine))
        processes = [process for process, _pipe in engine._pool._workers]
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes)
        del engine
        gc.collect()
        assert not any(process.is_alive() for process in processes)

    def test_serial_engine_spawns_no_pool(self, loops, machine):
        engine = serial_engine()
        engine.map(_pressure_jobs(loops, machine))
        assert engine._pool is None

    def test_all_hits_map_spawns_no_pool(self, loops, machine, tmp_path):
        cache = ResultCache(directory=tmp_path / "c")
        with Engine(workers=2, cache=cache) as cold:
            cold.map(_pressure_jobs(loops, machine))
        with Engine(
            workers=2, cache=ResultCache(directory=tmp_path / "c")
        ) as warm:
            warm.map(_pressure_jobs(loops, machine))
            assert warm.cache.stats.misses == 0
            assert warm._pool is None  # warm path must not pay worker startup


class TestGroupDispatch:
    @pytest.mark.parametrize("prove", [False, True])
    def test_run_task_preserves_indices(self, jobs, prove):
        from repro.engine.jobs import execute_job
        from repro.engine.pool import _group_misses, _run_task

        half = len(jobs) // 2  # loop 0's pressure and evaluate jobs
        task = _group_misses([(0, jobs[0]), (half, jobs[half])])
        assert len(task) == 1
        messages = []
        _run_task(task, prove, messages.append)
        # A proof streams one message per job, any other map one per task.
        assert [len(message) for message in messages] == (
            [1, 1] if prove else [2]
        )
        streamed = [pair for message in messages for pair in message]
        assert [index for index, _ in streamed] == [0, half]
        for index, result in streamed:
            assert result == execute_job(jobs[index])

    def test_pool_matches_serial_at_every_worker_count(self, jobs):
        serial = run_jobs(jobs, workers=0)
        for workers in (2, 3):
            assert run_jobs(jobs, workers=workers) == serial

    def test_progress_covers_every_job_when_pooled(self, jobs):
        seen = []
        landed = []
        results = run_jobs(
            jobs,
            workers=2,
            progress=lambda done, total: seen.append((done, total)),
            on_result=lambda index, _job, _result: landed.append(index),
        )
        assert seen[-1] == (len(jobs), len(jobs))
        assert [done for done, _ in seen] == list(range(1, len(jobs) + 1))
        assert sorted(landed) == list(range(len(jobs)))
        assert [r.loop_name for r in results] == [j.loop.name for j in jobs]

    def test_tasks_pack_whole_groups(self, loops, machine):
        """A task is a run of whole loop groups: one group each at size 1
        (a proof's tasks), at least ``size`` jobs each otherwise."""
        from repro.engine.pool import WorkerPool, _group_misses, _tasks

        jobs = [
            evaluate_job(loop, machine, model, 16)
            for loop in loops[:3]
            for model in (Model.UNIFIED, Model.SWAPPED)
        ]
        groups = _group_misses(list(enumerate(jobs)))
        assert [len(group) for group in groups] == [2, 2, 2]
        assert _tasks(groups, 1) == [[group] for group in groups]
        assert _tasks(groups, 3) == [groups[:2], groups[2:]]
        pool = WorkerPool(2)
        try:
            landed = list(pool.run(_tasks(groups, 3)))
        finally:
            pool.close()
        assert sorted(index for index, _result in landed) == list(range(6))
        assert [r for _i, r in sorted(landed, key=lambda x: x[0])] == (
            run_jobs(jobs, workers=0)
        )

    def test_a_pool_runs_one_map_at_a_time(self, jobs):
        """A second map on a busy pool is refused; the first, abandoned
        mid-map, closes the pool, whose workers may hold its work."""
        from repro.engine.pool import WorkerPool, _group_misses, _tasks

        tasks = _tasks(_group_misses(list(enumerate(jobs))), 1)
        pool = WorkerPool(2)
        try:
            first = pool.run(tasks)
            next(first)
            with pytest.raises(RuntimeError, match="already running"):
                next(pool.run(tasks))
            assert not pool.closed
            first.close()
            assert pool.closed
        finally:
            pool.close()


class TestChainMemo:
    """``execute_batch`` keeps chains only in a lent memo.

    A session lends its memo around its point requests
    (``Session._run_job``); ``run_jobs`` and ``Engine.map`` alone keep
    nothing between calls.
    """

    @staticmethod
    def _count_chains(monkeypatch) -> list[int]:
        from repro.kernel import batch as kbatch

        built = [0]
        original = kbatch.LoopChain

        class CountingChain(original):
            def __init__(self, *args, **kwargs):
                built[0] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(kbatch, "LoopChain", CountingChain)
        return built

    def test_run_jobs_builds_one_chain_per_call(
        self, loops, machine, monkeypatch
    ):
        jobs = [
            evaluate_job(loops[0], machine, model, 16)
            for model in (Model.UNIFIED, Model.SWAPPED)
        ]
        built = self._count_chains(monkeypatch)
        first = run_jobs(jobs, workers=0, cache=None)
        assert run_jobs(jobs, workers=0, cache=None) == first
        assert built[0] == 2

    def test_engine_map_keeps_no_chain(self, loops, machine, monkeypatch):
        built = self._count_chains(monkeypatch)
        engine = Engine(workers=0, cache=None)
        for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
            engine.map([evaluate_job(loops[0], machine, model, 16)])
        assert built[0] == 3

    def test_lent_memo_reuses_a_loops_chain_across_calls(
        self, loops, machine, monkeypatch
    ):
        from repro.engine.jobs import lent_chains

        built = self._count_chains(monkeypatch)
        chains: dict = {}
        with lent_chains(chains):
            for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
                run_jobs(
                    [evaluate_job(loops[0], machine, model, 16)],
                    workers=0,
                    cache=None,
                )
        assert built[0] == 1
        assert len(chains) == 1
        run_jobs([evaluate_job(loops[0], machine, Model.IDEAL, None)],
                 workers=0, cache=None)
        assert built[0] == 2  # outside the context the memo is not lent

    def test_memo_holds_exactly_the_bound(self, machine):
        from repro.engine.jobs import CHAIN_MEMO_SIZE, batch_key, lent_chains
        from repro.workloads.suite import perfect_club_like

        jobs: dict = {}
        for loop in perfect_club_like(2 * CHAIN_MEMO_SIZE):
            job = evaluate_job(loop, machine, Model.IDEAL, None)
            jobs.setdefault(batch_key(job), job)
        keys = list(jobs)
        assert len(keys) > CHAIN_MEMO_SIZE + 1
        chains: dict = {}
        with lent_chains(chains):
            for key in keys[: CHAIN_MEMO_SIZE + 2]:
                run_jobs([jobs[key]], workers=0, cache=None)
        assert len(chains) == CHAIN_MEMO_SIZE
        # Least recently used leave first.
        assert list(chains) == keys[2: CHAIN_MEMO_SIZE + 2]
