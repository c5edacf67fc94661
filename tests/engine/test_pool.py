"""Pool execution: serial/pooled equality, caching, ordering, ModelRun parity."""

import pytest

from repro.analysis.performance import run_model
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


class TestEngine:
    def test_run_model_matches_direct(self, loops, machine):
        engine = serial_engine()
        via_engine = engine.run_model(loops, machine, Model.UNIFIED, 24)
        direct = run_model(loops, machine, Model.UNIFIED, 24)
        assert via_engine.cycles == direct.cycles
        assert via_engine.total_spills == direct.total_spills
        assert via_engine.loops_spilled == direct.loops_spilled
        assert via_engine.loops_not_fitting == direct.loops_not_fitting

    def test_run_model_pooled_matches_serial(self, loops, machine):
        pooled = Engine(workers=2).run_model(loops, machine, Model.SWAPPED, 24)
        serial = Engine(workers=0).run_model(loops, machine, Model.SWAPPED, 24)
        assert pooled.evaluations == serial.evaluations

    def test_shared_engine_collapses_repeats(self, loops, machine):
        engine = serial_engine()
        engine.pressure_reports(loops, machine)
        before = engine.cache.stats.misses
        engine.pressure_reports(loops, machine)  # Figure 7 after Figure 6
        assert engine.cache.stats.misses == before
        assert engine.cache.stats.hits >= len(loops)

    def test_jobs_run_counter(self, loops, machine):
        engine = serial_engine()
        engine.pressure_reports(loops, machine)
        assert engine.jobs_run == len(loops)

    def test_worker_pool_reused_across_maps(self, loops, machine):
        with Engine(workers=2) as engine:
            engine.pressure_reports(loops, machine)
            first = engine._pool
            engine.run_model(loops, machine, Model.UNIFIED, 24)
            assert engine._pool is first is not None
        assert engine._pool is None  # context exit released the workers

    def test_serial_engine_spawns_no_pool(self, loops, machine):
        engine = serial_engine()
        engine.pressure_reports(loops, machine)
        assert engine._pool is None

    def test_all_hits_map_spawns_no_pool(self, loops, machine, tmp_path):
        cache = ResultCache(directory=tmp_path / "c")
        with Engine(workers=2, cache=cache) as cold:
            cold.pressure_reports(loops, machine)
        with Engine(
            workers=2, cache=ResultCache(directory=tmp_path / "c")
        ) as warm:
            warm.pressure_reports(loops, machine)
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
