"""Differential properties: array kernels vs the dict-based reference.

Every public hot-path entry point dispatches on :func:`repro.kernel.
kernels_enabled`; these tests drive *both* implementations over seeded
synthetic loops (the calibrated workload) and hypothesis-generated graphs
(the degenerate corners) and require bit-identical outcomes: same II and
placements, same lifetimes, same register counts under every model, same
swap traces, same spill traffic.  Any divergence is a kernel bug by
definition -- the dict implementations are the specification.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.models import Model, required_registers
from repro.core.swapping import SwapEstimator, greedy_swap
from repro.engine.jobs import evaluate_job, execute_job, pressure_job
from repro.engine.pool import run_jobs
from repro.ir.loop import Loop
from repro.machine.config import clustered_config, paper_config
from repro.pipeline import ArtifactStore, run_evaluation, run_pressure
from repro.regalloc.allocation import allocate_unified
from repro.regalloc.lifetimes import lifetimes
from repro.regalloc.maxlive import live_profile
from repro.sched.modulo import modulo_schedule
from repro.workloads.synthetic import generate_loop

from strategies import dependence_graphs, high_pressure_graphs, machines

SEEDS = range(24)

#: Synthetic indices whose Swapped spill point is too slow on the dict
#: reference swap search to re-run here (loop 4 has 99 ops).  Swapped
#: dict-vs-kernel spill equality stays covered by the other indices and by
#: ``TestBatchDifferential``'s high-pressure property.
SLOW_SWAPPED_ORACLE = frozenset({4})


def _both(fn):
    """Run ``fn`` under both implementations, returning the two results."""
    with kernel.use_kernels(False):
        legacy = fn()
    with kernel.use_kernels(True):
        arrays = fn()
    return legacy, arrays


def _swap_trace(schedule, **kwargs):
    """Everything a greedy swap search decides, in comparable form."""
    result = greedy_swap(schedule, **kwargs)
    return (
        result.swaps,
        result.moves,
        result.estimate_before,
        result.estimate_after,
        result.assignment,
        result.schedule.placements,
    )


class TestSyntheticLoops:
    @pytest.mark.parametrize("index", SEEDS)
    def test_schedule_and_lifetimes_identical(self, index, paper_l6):
        loop = generate_loop(index)
        legacy, arrays = _both(
            lambda: modulo_schedule(loop.graph, paper_l6)
        )
        assert legacy.ii == arrays.ii
        assert legacy.placements == arrays.placements
        l0, l1 = _both(lambda: lifetimes(legacy))
        assert l0 == l1
        assert list(l0) == list(l1)  # same key order at the boundary

    @pytest.mark.parametrize("index", SEEDS)
    def test_requirements_identical_all_models(self, index, paper_l6):
        loop = generate_loop(index)
        schedule = modulo_schedule(loop.graph, paper_l6)

        def measure():
            return {
                model: required_registers(schedule, model).registers
                for model in Model
            }

        legacy, arrays = _both(measure)
        assert legacy == arrays

    @pytest.mark.parametrize("index", SEEDS)
    def test_swap_traces_identical(self, index, paper_l6):
        loop = generate_loop(index)
        schedule = modulo_schedule(loop.graph, paper_l6)
        for kwargs in (
            {},
            {"allow_moves": True},
            {"estimator": SwapEstimator.FIRSTFIT},
        ):
            legacy, arrays = _both(lambda: _swap_trace(schedule, **kwargs))
            assert legacy == arrays, kwargs

    @pytest.mark.parametrize("index", range(12))
    def test_swap_traces_identical_on_four_clusters(self, index):
        """Four subfiles: peaks shared by two clusters, moves across
        clusters that never meet in a swap."""
        schedule = modulo_schedule(
            generate_loop(index).graph, clustered_config(4)
        )
        for kwargs in ({}, {"allow_moves": True}):
            legacy, arrays = _both(lambda: _swap_trace(schedule, **kwargs))
            assert legacy == arrays, kwargs

    @pytest.mark.parametrize("index", range(12))
    def test_spill_evaluation_identical(self, index, paper_l6):
        loop = generate_loop(index)
        models = [Model.UNIFIED, Model.PARTITIONED]
        if index not in SLOW_SWAPPED_ORACLE:
            models.append(Model.SWAPPED)

        def evaluate():
            out = []
            store = ArtifactStore(max_entries=1024)
            for model in models:
                ev = run_evaluation(
                    loop, paper_l6, model, register_budget=24, store=store
                )
                out.append(
                    (
                        ev.ii,
                        ev.spilled_values,
                        ev.ii_increases,
                        ev.fits,
                        ev.requirement.registers,
                        ev.spill_ops_per_iteration,
                        ev.memory_ops_per_iteration,
                    )
                )
            return out

        legacy, arrays = _both(evaluate)
        assert legacy == arrays

    @pytest.mark.parametrize("index", range(8))
    def test_pressure_identical_on_four_clusters(self, index):
        machine = clustered_config(4)
        loop = generate_loop(index)

        def pressure():
            report = run_pressure(loop, machine, store=ArtifactStore(256))
            return (
                report.ii,
                report.unified,
                report.partitioned,
                report.swapped,
                report.max_live,
            )

        legacy, arrays = _both(pressure)
        assert legacy == arrays


class TestRandomGraphs:
    @given(dependence_graphs(), st.sampled_from([3, 6]))
    @settings(max_examples=25, deadline=None)
    def test_schedule_allocation_swap_identical(self, graph, latency):
        machine = paper_config(latency)
        legacy, arrays = _both(lambda: modulo_schedule(graph, machine))
        assert legacy.ii == arrays.ii
        assert legacy.placements == arrays.placements
        schedule = legacy

        def analyze():
            lts = lifetimes(schedule)
            unified = allocate_unified(schedule, lts=lts)
            swap = greedy_swap(schedule, lts=lts)
            return (
                {op_id: (p.shift) for op_id, p in unified.result.placements.items()},
                unified.registers_required,
                live_profile(lts.values(), schedule.ii),
                swap.swaps,
                swap.estimate_before,
                swap.estimate_after,
            )

        l0, l1 = _both(analyze)
        assert l0 == l1


class TestSwapSearchUnderPressure:
    """The kernel search prunes MAXLIVE candidates that cannot lower a
    peak; the unpruned dict search is the oracle that the prune only ever
    skips candidates ``consider`` would reject."""

    @given(
        high_pressure_graphs(),
        st.sampled_from(
            (paper_config(3), paper_config(6), clustered_config(4))
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_swap_traces_identical(self, graph, machine):
        schedule = modulo_schedule(graph, machine)
        for kwargs in ({}, {"allow_moves": True}):
            legacy, arrays = _both(lambda: _swap_trace(schedule, **kwargs))
            assert legacy == arrays, kwargs


def _evaluators(jobs):
    """Grouped ``run_jobs``, per-point kernels, and the dict oracle."""
    grouped = run_jobs(jobs, workers=0, cache=None)
    per_point = [execute_job(job) for job in jobs]
    with kernel.use_kernels(False):
        oracle = run_jobs(jobs, workers=0, cache=None)
    return grouped, per_point, oracle


class TestBatchDifferential:
    """The engine's grid-batched chain against per-point and the oracle.

    The walk sharing of :class:`repro.kernel.batch.LoopChain` (memoized
    chain nodes, lower-bound gating, array-space spilling) must be
    invisible at the ``run_jobs`` boundary: every (model, budget) point of
    a random graph returns the identical :class:`JobResult` grouped through
    the chain, per point through ``execute_job``, and on the dict oracle.
    """

    @given(dependence_graphs(), st.sampled_from([3, 6]))
    @settings(max_examples=20, deadline=None)
    def test_engine_tiers_identical(self, graph, latency):
        machine = paper_config(latency)
        loop = Loop(name="hyp", graph=graph, trip_count=50)
        jobs = [evaluate_job(loop, machine, Model.IDEAL, None)]
        for budget in (4, 12):
            for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
                jobs.append(evaluate_job(loop, machine, model, budget))
        jobs.append(pressure_job(loop, machine))
        grouped, per_point, oracle = _evaluators(jobs)
        assert grouped == per_point
        assert per_point == oracle

    @given(high_pressure_graphs(), machines())
    @settings(max_examples=10, deadline=None)
    def test_engine_tiers_identical_under_pressure(self, graph, machine):
        """The adversarial shapes the sim differential sweeps -- dense
        arithmetic, pre-spilled store/reload chains, distance>1 edges,
        degenerate single-cluster machines -- must also leave the kernel
        evaluators bit-identical at the ``run_jobs`` boundary."""
        loop = Loop(name="hyp-pressure", graph=graph, trip_count=50)
        jobs = [evaluate_job(loop, machine, Model.IDEAL, None)]
        for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
            jobs.append(evaluate_job(loop, machine, model, 6))
        jobs.append(pressure_job(loop, machine))
        grouped, per_point, oracle = _evaluators(jobs)
        assert grouped == per_point
        assert per_point == oracle
