"""Grid-batched execution: the chain == the dict reference, bit for bit.

The engine moves sharing into one :class:`repro.kernel.batch.LoopChain`
per job group, so the differential contract is stated here at the
``run_jobs`` boundary: the same job list must produce the same
:class:`JobResult` objects grouped through the chain and per point through
the dict reference (``execute_job``), over the golden Figure 8/9 bench
grid and under every policy knob.
"""

from __future__ import annotations

import pytest

from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    batch_key,
    evaluate_job,
    execute_batch,
    execute_job,
    pressure_job,
)
from repro.engine.pool import _group_misses, run_jobs
from repro.bench import LATENCY, bench_grid
from repro.ir.loop import Loop
from repro.kernel import batch as kbatch
from repro.machine.config import paper_config, pxly
from repro.workloads.suite import perfect_club_like


@pytest.fixture(scope="module")
def machine():
    return paper_config(LATENCY)


@pytest.fixture(scope="module")
def loops():
    return list(perfect_club_like(10))


@pytest.fixture(scope="module")
def grid_jobs(loops, machine):
    """The golden bench grid (Figures 8/9 shape) plus pressure points."""
    jobs = [
        evaluate_job(loop, mach, model, budget)
        for loop, mach, model, budget in bench_grid(loops, machine)
    ]
    jobs += [pressure_job(loop, machine) for loop in loops[:4]]
    jobs.append(
        pressure_job(
            loops[0], machine, swap_estimator=SwapEstimator.FIRSTFIT
        )
    )
    return jobs


def _evaluators(jobs):
    """Grouped ``run_jobs`` and the dict reference per job."""
    grouped = run_jobs(jobs, workers=0, cache=None)
    reference = [execute_job(job) for job in jobs]
    return grouped, reference


class TestReference:
    def test_reference_never_builds_a_chain(
        self, loops, machine, monkeypatch
    ):
        """``execute_job`` is the reference: it runs with the chain gone."""
        jobs = [evaluate_job(loops[0], machine, Model.UNIFIED, 32)]
        served = execute_batch(jobs)

        def no_chain(*_args, **_kwargs):
            raise AssertionError("the dict reference built a chain")

        monkeypatch.setattr(kbatch, "LoopChain", no_chain)
        assert [execute_job(jobs[0])] == served


class TestDifferential:
    def test_golden_grid_identical_across_tiers(self, grid_jobs):
        grouped, reference = _evaluators(grid_jobs)
        assert grouped == reference

    @pytest.mark.parametrize(
        "policy", ["first", "most_registers", "most_consumers", "least_traffic"]
    )
    def test_alternate_policies_identical(self, loops, machine, policy):
        jobs = [
            evaluate_job(
                loop, machine, Model.UNIFIED, 24, victim_policy=policy
            )
            for loop in loops[:4]
        ]
        grouped, reference = _evaluators(jobs)
        assert grouped == reference

    @pytest.mark.parametrize("escalation", ["increment", "geometric"])
    def test_increase_ii_strategy_identical(self, loops, escalation):
        machine = pxly(2, 6)
        jobs = [
            evaluate_job(
                loop,
                machine,
                Model.UNIFIED,
                16,
                pressure_strategy="increase_ii",
                ii_escalation=escalation,
            )
            for loop in loops[:4]
        ]
        grouped, reference = _evaluators(jobs)
        assert grouped == reference

    def test_execute_batch_matches_execute_job(self, loops, machine):
        loop = loops[0]
        jobs = [evaluate_job(loop, machine, Model.IDEAL, None)]
        for budget in (16, 32):
            for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
                jobs.append(evaluate_job(loop, machine, model, budget))
        jobs.append(
            evaluate_job(
                loop,
                machine,
                Model.SWAPPED,
                24,
                swap_estimator=SwapEstimator.FIRSTFIT,
            )
        )
        jobs.append(pressure_job(loop, machine))
        assert len({batch_key(job) for job in jobs}) == 1
        assert execute_batch(jobs) == [execute_job(job) for job in jobs]


class TestDispatch:
    def test_serial_fallback_groups_batches(self, grid_jobs):
        """``workers=0`` rides the grouped path, results in job order."""
        batched = run_jobs(grid_jobs, workers=0, cache=None)
        assert [r.loop_name for r in batched] == [
            job.loop.name for job in grid_jobs
        ]

    def test_groups_split_by_content_not_name(self, loops, machine):
        loop = loops[0]
        twin = Loop(
            name="twin", graph=loop.graph, trip_count=loop.trip_count + 7
        )
        jobs = [
            evaluate_job(loop, machine, Model.UNIFIED, 32),
            evaluate_job(loops[1], machine, Model.UNIFIED, 32),
            evaluate_job(twin, machine, Model.UNIFIED, 32),
        ]
        groups = _group_misses(list(enumerate(jobs)))
        # Same graph content (the twin) shares a group despite the
        # different name and trip count; a different loop does not.
        assert [len(g) for g in groups] == [2, 1]

    def test_warm_second_pass_hits_cache(self, grid_jobs):
        cache = ResultCache(directory=None)
        first = run_jobs(grid_jobs, workers=0, cache=cache)
        lookups_before = cache.stats.lookups
        second = run_jobs(grid_jobs, workers=0, cache=cache)
        assert first == second
        assert cache.stats.hits >= lookups_before  # second pass: all hits


class TestChainKnobs:
    def test_unknown_pressure_strategy_rejected_by_chain(
        self, loops, machine
    ):
        with pytest.raises(ValueError, match="unknown pressure strategy"):
            kbatch.LoopChain(
                loops[0].graph, machine, pressure_strategy="hope"
            )

    def test_unknown_policy_rejected_like_the_pipeline(self, loops, machine):
        """``increase_ii`` never selects a victim, but an unregistered
        policy name still fails eagerly, as ``run_evaluation`` does."""
        with pytest.raises(ValueError, match="unknown victim policy"):
            kbatch.LoopChain(
                loops[0].graph,
                machine,
                victim_policy="nope",
                pressure_strategy="increase_ii",
            )
