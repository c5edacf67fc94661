"""Differential properties: the LoopChain against the dict reference.

The production evaluator is :class:`repro.kernel.batch.LoopChain`; the
public modules (:mod:`repro.sched.modulo`, :mod:`repro.regalloc`,
:mod:`repro.core`, the pass pipeline over them) are the readable dict
reference.  These tests drive both over seeded synthetic loops (the
calibrated workload) and hypothesis-generated graphs (the degenerate
corners) and require bit-identical outcomes: the same schedule, the same
lifetimes, the same allocations under every model (compared as whole
dataclasses), the same swap traces, the same spill traffic.  Any
divergence is a chain bug by definition -- the dict implementations are
the specification.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import Model, required_registers
from repro.core.pressure import pressure_report
from repro.core.swapping import SwapEstimator, greedy_swap
from repro.engine.jobs import evaluate_job, execute_job, pressure_job
from repro.engine.pool import run_jobs
from repro.ir.loop import Loop
from repro.kernel.batch import LoopChain
from repro.kernel.lifetimes import live_profile_spans
from repro.kernel.swap import greedy_swap_search
from repro.machine.config import clustered_config, example_config, paper_config
from repro.pipeline import ArtifactStore, run_evaluation, run_pressure
from repro.regalloc.lifetimes import lifetimes
from repro.regalloc.maxlive import live_profile
from repro.sched.modulo import modulo_schedule
from repro.workloads.synthetic import generate_loop

from strategies import dependence_graphs, high_pressure_graphs, machines

SEEDS = range(24)

#: Synthetic indices whose Swapped spill point is too slow on the dict
#: reference swap search to re-run here (loop 4 has 99 ops).  Swapped
#: chain-vs-dict spill equality stays covered by the other indices and by
#: ``TestBatchDifferential``'s high-pressure property.
SLOW_SWAPPED_ORACLE = frozenset({4})


def _reference_trace(schedule, **kwargs):
    """Everything the dict swap search decides, in comparable form."""
    result = greedy_swap(schedule, **kwargs)
    return (
        result.swaps,
        result.moves,
        result.estimate_before,
        result.estimate_after,
        result.assignment,
        {op_id: p.instance for op_id, p in result.schedule.placements.items()},
    )


def _chain_trace(
    chain, estimator=SwapEstimator.MAXLIVE, allow_moves=False
):
    """The same decisions from the array search on the chain's root."""
    root = chain.root
    times, insts, ii = root.sched
    starts, ends = root.bounds
    insts = list(insts)
    asg = list(root.asg)
    swaps, moves, before, after = greedy_swap_search(
        root.la,
        ii,
        [t % ii for t in times],
        insts,
        asg,
        starts,
        ends,
        estimator is SwapEstimator.FIRSTFIT,
        1000,
        allow_moves,
    )
    ids = root.la.ids
    return (
        tuple(swaps),
        tuple(moves),
        before,
        after,
        dict(zip(ids, asg)),
        dict(zip(ids, insts)),
    )


def _assert_schedule_and_lifetimes(chain, graph, machine):
    """The chain root's schedule and lifetimes against the reference."""
    reference = modulo_schedule(graph, machine)
    root = chain.root
    assert root.schedule == reference
    lts = lifetimes(reference)
    assert root.lifetimes == lts
    assert list(root.lifetimes) == list(lts)  # same key order
    return reference, lts


def _assert_requirements(chain, reference, lts):
    """Every model's allocation at the root, as whole dataclasses."""
    root = chain.root
    for model in Model:
        expected = required_registers(reference, model, lts=lts)
        assert root.lift(model, SwapEstimator.MAXLIVE) == expected, model
        assert root.requirement(model, SwapEstimator.MAXLIVE) == (
            expected.registers
        )


class TestSyntheticLoops:
    @pytest.mark.parametrize("index", SEEDS)
    def test_schedule_and_lifetimes_identical(self, index, paper_l6):
        graph = generate_loop(index).graph
        _assert_schedule_and_lifetimes(
            LoopChain(graph, paper_l6), graph, paper_l6
        )

    @pytest.mark.parametrize("index", SEEDS)
    def test_requirements_identical_all_models(self, index, paper_l6):
        graph = generate_loop(index).graph
        reference = modulo_schedule(graph, paper_l6)
        _assert_requirements(
            LoopChain(graph, paper_l6), reference, lifetimes(reference)
        )

    @pytest.mark.parametrize("index", SEEDS)
    def test_swap_traces_identical(self, index, paper_l6):
        loop = generate_loop(index)
        chain = LoopChain(loop.graph, paper_l6)
        schedule = chain.root.schedule
        for estimator in SwapEstimator:
            assert chain.root.lift(Model.SWAPPED, estimator).swap == (
                greedy_swap(schedule, estimator=estimator)
            ), estimator
        assert _chain_trace(chain, allow_moves=True) == _reference_trace(
            schedule, allow_moves=True
        )

    @pytest.mark.parametrize("index", range(12))
    def test_swap_traces_identical_on_four_clusters(self, index):
        """Four subfiles: peaks shared by two clusters, moves across
        clusters that never meet in a swap."""
        chain = LoopChain(generate_loop(index).graph, clustered_config(4))
        schedule = chain.root.schedule
        for allow_moves in (False, True):
            assert _chain_trace(chain, allow_moves=allow_moves) == (
                _reference_trace(schedule, allow_moves=allow_moves)
            ), allow_moves

    @pytest.mark.parametrize("index", range(12))
    def test_spill_evaluation_identical(self, index, paper_l6):
        loop = generate_loop(index)
        models = [Model.UNIFIED, Model.PARTITIONED]
        if index not in SLOW_SWAPPED_ORACLE:
            models.append(Model.SWAPPED)
        chain = LoopChain(loop.graph, paper_l6)
        store = ArtifactStore(max_entries=1024)
        for model in models:
            summary, ev = chain.materialize(
                loop, model, 24, SwapEstimator.MAXLIVE
            )
            ref = run_evaluation(
                loop, paper_l6, model, register_budget=24, store=store
            )
            assert (
                ev.ii,
                ev.spilled_values,
                ev.ii_increases,
                ev.fits,
                ev.requirement.registers,
                ev.spill_ops_per_iteration,
                ev.memory_ops_per_iteration,
            ) == (
                ref.ii,
                ref.spilled_values,
                ref.ii_increases,
                ref.fits,
                ref.requirement.registers,
                ref.spill_ops_per_iteration,
                ref.memory_ops_per_iteration,
            ), model
            assert summary.registers == ref.requirement.registers

    @pytest.mark.parametrize("index", range(8))
    def test_pressure_identical_on_four_clusters(self, index):
        machine = clustered_config(4)
        loop = generate_loop(index)
        chain = pressure_report(loop, machine)
        ref = run_pressure(loop, machine, store=ArtifactStore(256))
        assert chain.schedule == ref.schedule
        assert (
            chain.mii,
            chain.unified,
            chain.partitioned,
            chain.swapped,
            chain.max_live,
        ) == (ref.mii, ref.unified, ref.partitioned, ref.swapped, ref.max_live)


class TestRandomGraphs:
    @given(dependence_graphs(), st.sampled_from([3, 6]))
    @settings(max_examples=25, deadline=None)
    def test_schedule_allocation_swap_identical(self, graph, latency):
        machine = paper_config(latency)
        chain = LoopChain(graph, machine)
        schedule, lts = _assert_schedule_and_lifetimes(chain, graph, machine)
        _assert_requirements(chain, schedule, lts)
        assert live_profile_spans(zip(*chain.root.bounds), schedule.ii) == (
            live_profile(lts.values(), schedule.ii)
        )


class TestUnequalUnitCounts:
    """The IMS attempt's flat occupant table on a machine whose pools have
    different unit counts (the example machine: 2 adders, 2 multipliers,
    4 memory ports): every cell is as wide as the widest pool, so each
    placement and unschedule must index instance ``k`` of its own cell."""

    @given(high_pressure_graphs())
    @settings(max_examples=20, deadline=None)
    def test_schedule_identical(self, graph):
        machine = example_config()
        chain = LoopChain(graph, machine)
        assert chain.root.schedule == modulo_schedule(graph, machine)


class TestSwapSearchUnderPressure:
    """The array search prunes MAXLIVE candidates that cannot lower a
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
        chain = LoopChain(graph, machine)
        schedule = chain.root.schedule
        for allow_moves in (False, True):
            assert _chain_trace(chain, allow_moves=allow_moves) == (
                _reference_trace(schedule, allow_moves=allow_moves)
            ), allow_moves


def _evaluators(jobs):
    """Grouped ``run_jobs`` (one chain per loop) and the pipeline per job."""
    grouped = run_jobs(jobs, workers=0, cache=None)
    reference = [execute_job(job) for job in jobs]
    return grouped, reference


class TestBatchDifferential:
    """The engine's grid-batched chain against the pipeline per point.

    The walk sharing of :class:`repro.kernel.batch.LoopChain` (memoized
    chain nodes, lower-bound gating, array-space spilling) must be
    invisible at the ``run_jobs`` boundary: every (model, budget) point of
    a random graph returns the identical :class:`JobResult` grouped through
    the chain and per point through ``execute_job`` (the pass pipeline).
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
        grouped, reference = _evaluators(jobs)
        assert grouped == reference

    @given(high_pressure_graphs(), machines())
    @settings(max_examples=10, deadline=None)
    def test_engine_tiers_identical_under_pressure(self, graph, machine):
        """The adversarial shapes the sim differential sweeps -- dense
        arithmetic, pre-spilled store/reload chains, distance>1 edges,
        degenerate single-cluster machines -- must also leave the chain
        bit-identical to the pipeline at the ``run_jobs`` boundary."""
        loop = Loop(name="hyp-pressure", graph=graph, trip_count=50)
        jobs = [evaluate_job(loop, machine, Model.IDEAL, None)]
        for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
            jobs.append(evaluate_job(loop, machine, model, 6))
        jobs.append(pressure_job(loop, machine))
        grouped, reference = _evaluators(jobs)
        assert grouped == reference
