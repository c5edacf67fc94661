"""The suite is one grid: every section's jobs go through one ``Engine.map``.

Each section declares its points (``SuiteSection.jobs``) and builds its
result from their slice of the results; ``run_suite`` maps the jobs of
every section at once.  So the repeats between sections (Figure 7 reads
Figure 6's points, Figure 9 Figure 8's) resolve inside that one call, and
each loop's points on one machine walk one chain.
"""

import pytest

from repro.api.registry import get_experiment
from repro.engine import pool
from repro.engine.jobs import batch_key
from repro.engine.pool import Engine, serial_engine
from repro.experiments.runner import run_suite
from repro.report.build import generate_report

N_LOOPS = 12


@pytest.fixture
def maps(monkeypatch):
    """Every ``Engine.map`` call's job list, in call order."""
    calls = []
    original = Engine.map

    def counting_map(self, jobs, *args, **kwargs):
        calls.append(list(jobs))
        return original(self, jobs, *args, **kwargs)

    monkeypatch.setattr(Engine, "map", counting_map)
    return calls


@pytest.fixture
def batches(monkeypatch):
    """The number of ``execute_batch`` calls of in-process groups."""
    count = [0]
    original = pool.execute_batch

    def counting_batch(jobs):
        count[0] += 1
        return original(jobs)

    monkeypatch.setattr(pool, "execute_batch", counting_batch)
    return count


def test_run_suite_maps_once(maps):
    suite = run_suite(N_LOOPS, spill_loops=6, engine=serial_engine())
    assert len(maps) == 1
    assert suite.engine_jobs == len(maps[0])


def test_generate_report_maps_once(maps):
    generate_report(n_loops=N_LOOPS, stamp=False, out_dir=None)
    assert len(maps) == 1


def test_cold_serial_suite_builds_one_chain_per_batch_key(maps, batches):
    run_suite(N_LOOPS, engine=Engine(workers=0, cache=None))
    (jobs,) = maps
    keys = {batch_key(job) for job in jobs}
    assert batches[0] == len(keys)
    # Pressure and evaluate jobs of a (loop, latency) share one chain,
    # and the figures read repeated points, so both counts shrink.
    assert len(keys) < len({job.key for job in jobs}) < len(jobs)


@pytest.mark.parametrize(
    "name", ["table1", "figure6", "figure7", "figure8", "figure9"]
)
def test_standalone_experiment_equals_suite_section(name):
    """A registry entry's run is its suite section over the whole suite
    (``spill_loops=None``), through the same one-map helper."""
    standalone = get_experiment(name).run(loops=N_LOOPS)
    suite = run_suite(N_LOOPS, engine=serial_engine())
    assert standalone == suite.result(name)


def test_standalone_run_maps_once(maps):
    get_experiment("figure9").run(
        loops=N_LOOPS, victim_policy="most_registers"
    )
    assert len(maps) == 1
    policies = {job.victim_policy for job in maps[0]}
    assert policies == {"longest", "most_registers"}  # Ideal keeps defaults


def test_cold_suite_accounts_for_every_point():
    """Each point is a hit, a miss or shared with an earlier repeat."""
    engine = serial_engine()
    suite = run_suite(N_LOOPS, spill_loops=6, engine=engine)
    stats = engine.cache.stats
    assert stats.hits == 0 and stats.shared > 0
    assert stats.hits + stats.misses + stats.shared == suite.engine_jobs
    assert f"/ {stats.shared} shared (0.0% hit rate)" in stats.summary()
    # Warm, every point is a hit: only a pending miss is shared.
    run_suite(N_LOOPS, spill_loops=6, engine=engine)
    assert stats.hits == suite.engine_jobs
    assert stats.hits + stats.misses + stats.shared == 2 * suite.engine_jobs
