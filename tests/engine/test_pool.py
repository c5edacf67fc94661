"""Pool execution: serial/pooled equality, caching, ordering, ModelRun parity."""

import pytest

from repro.analysis.performance import ModelRun, run_model
from repro.core.models import Model
from repro.engine.cache import ResultCache
from repro.engine.jobs import evaluate_job, pressure_job
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
    def test_run_model_matches_direct(self, loops, machine):
        """The engine's ModelRun against the dict reference pipeline."""
        via_engine = _model_run(
            serial_engine(), loops, machine, Model.UNIFIED, 24
        )
        direct = run_model(loops, machine, Model.UNIFIED, 24)
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


class TestChunkedDispatch:
    def test_execute_batch_chunk_preserves_indices(self, jobs):
        from repro.engine.jobs import execute_job
        from repro.engine.pool import _execute_batch_chunk, _group_misses

        chunk = _group_misses(list(enumerate(jobs[:4])))
        batch = _execute_batch_chunk(chunk)
        assert sorted(index for index, _ in batch) == [0, 1, 2, 3]
        for index, result in batch:
            assert result == execute_job(jobs[index])

    def test_explicit_chunksize_matches_serial(self, jobs):
        serial = run_jobs(jobs, workers=0)
        for chunksize in (1, 3, len(jobs)):
            chunked = run_jobs(jobs, workers=2, chunksize=chunksize)
            assert chunked == serial

    def test_progress_covers_every_job_when_chunked(self, jobs):
        seen = []
        run_jobs(
            jobs,
            workers=2,
            chunksize=4,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (len(jobs), len(jobs))
        assert [done for done, _ in seen] == list(range(1, len(jobs) + 1))


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
