"""Chain materialization == the dict reference, artifact for artifact.

The static proof reads the schedule and allocation that
:meth:`repro.kernel.batch.LoopChain.materialize` lifts out of the node a
walk exits on.  These properties pin that evaluation to
:func:`repro.pipeline.pipelines.run_evaluation`'s: the same final graph
(op ids), the same placements before and after swapping, the same
register shifts and counts, and the same summary numbers -- over the
kernel library, the bench grid, every victim policy, both pressure
strategies, hypothesis high-pressure graphs, and round caps that expire
mid-walk.  One chain serves all of a loop's points, as in production.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import LATENCY, bench_grid
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.loop import Loop
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.pipeline.pipelines import run_evaluation
from repro.pipeline.policies import SPILL_POLICIES
from repro.workloads.kernels import all_kernels
from repro.workloads.suite import perfect_club_like

from strategies import high_pressure_graphs, machines

#: Unbounded, comfortable and tight budgets: the tight ones force spill
#: walks several nodes deep on most kernels.
POINTS = (
    (Model.IDEAL, None),
    (Model.UNIFIED, 32),
    (Model.UNIFIED, 8),
    (Model.PARTITIONED, 6),
    (Model.SWAPPED, 6),
)


def signature(evaluation) -> dict:
    """Everything a proof or a served result reads from one evaluation."""
    requirement = evaluation.requirement
    if requirement.dual is not None:
        allocated = requirement.dual.schedule
        placed = requirement.dual.placements
    else:
        allocated = requirement.unified.schedule
        placed = requirement.unified.result.placements
    return {
        "ops": [op.op_id for op in evaluation.schedule.graph.operations],
        "placements": evaluation.schedule.placements,
        "allocated": allocated.placements,
        "shifts": {op_id: p.shift for op_id, p in placed.items()},
        "registers": requirement.registers,
        "ii": evaluation.ii,
        "mii": evaluation.mii,
        "spilled_values": evaluation.spilled_values,
        "ii_increases": evaluation.ii_increases,
        "fits": evaluation.fits,
        "memory_ops": evaluation.memory_ops_per_iteration,
        "spill_ops": evaluation.spill_ops_per_iteration,
    }


def assert_materializes_like_pipeline(
    loop, machine, points, estimator=SwapEstimator.MAXLIVE, max_rounds=200,
    **knobs,
):
    chain = LoopChain(loop.graph, machine, **knobs)
    for model, budget in points:
        summary, evaluation = chain.materialize(
            loop, model, budget, estimator, max_rounds
        )
        expected = run_evaluation(
            loop,
            machine,
            model,
            budget,
            swap_estimator=estimator,
            max_rounds=max_rounds,
            **knobs,
        )
        context = f"{loop.name} {model.value} budget={budget} {knobs}"
        assert signature(evaluation) == signature(expected), context
        assert summary == chain.evaluate(model, budget, estimator, max_rounds)
        assert summary.registers == evaluation.requirement.registers, context


@pytest.fixture(scope="module")
def machine():
    return paper_config(LATENCY)


class TestKernelLibrary:
    @pytest.mark.parametrize("loop", all_kernels(), ids=lambda k: k.name)
    def test_every_kernel(self, loop, machine):
        assert_materializes_like_pipeline(loop, machine, POINTS)


class TestBenchGrid:
    def test_bench_grid_points(self, machine):
        for loop in perfect_club_like(10):
            points = [
                (model, budget)
                for _loop, _mach, model, budget in bench_grid([loop], machine)
            ]
            assert_materializes_like_pipeline(loop, machine, points)

    def test_firstfit_swap_estimator(self, machine):
        for loop in perfect_club_like(6):
            assert_materializes_like_pipeline(
                loop,
                machine,
                ((Model.SWAPPED, 6), (Model.SWAPPED, 12)),
                estimator=SwapEstimator.FIRSTFIT,
            )


class TestKnobs:
    @pytest.mark.parametrize("policy", sorted(SPILL_POLICIES))
    @pytest.mark.parametrize("strategy", ("spill", "increase_ii"))
    def test_policies_and_strategies(self, policy, strategy, machine):
        for loop in perfect_club_like(4):
            assert_materializes_like_pipeline(
                loop,
                machine,
                POINTS,
                victim_policy=policy,
                pressure_strategy=strategy,
            )


class TestRoundCap:
    def test_cap_expiring_after_a_spill_keeps_the_last_measured_node(
        self, machine
    ):
        """With one round the walk spills once and stops: the evaluation
        is the *root's* schedule (the last one measured), yet it reports
        the spill, as ``run_evaluation`` does."""
        loop = max(all_kernels(), key=lambda k: len(k.graph))
        chain = LoopChain(loop.graph, machine)
        summary, evaluation = chain.materialize(
            loop, Model.UNIFIED, 4, SwapEstimator.MAXLIVE, max_rounds=1
        )
        assert summary.spilled_values == 1
        assert not summary.fits
        assert evaluation.schedule.graph is loop.graph
        assert_materializes_like_pipeline(
            loop, machine, ((Model.UNIFIED, 4),), max_rounds=1
        )

    @pytest.mark.parametrize("max_rounds", (1, 2, 3, 5))
    def test_short_caps_on_the_bench_suite(self, max_rounds, machine):
        for loop in perfect_club_like(4):
            assert_materializes_like_pipeline(
                loop, machine, POINTS, max_rounds=max_rounds
            )


class TestHighPressureGraphs:
    @given(
        high_pressure_graphs(),
        machines(),
        st.sampled_from(sorted(SPILL_POLICIES)),
        st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_adversarial_graphs(self, graph, machine, policy, max_rounds):
        loop = Loop(name="hyp", graph=graph, trip_count=50)
        for rounds in (max_rounds, 200):
            assert_materializes_like_pipeline(
                loop,
                machine,
                POINTS,
                max_rounds=rounds,
                victim_policy=policy,
            )


class TestLiftNotRecompute:
    """``materialize`` lifts the allocation the walk computed; it never
    runs the dict allocators or the swap search a second time."""

    def test_materialize_never_reallocates(self, machine, monkeypatch):
        import repro.core.models as models
        import repro.core.swapping as swapping
        import repro.kernel.batch as batch

        def forbidden(*_args, **_kwargs):
            raise AssertionError("materialize re-derived the allocation")

        for module, name in (
            (models, "required_registers"),
            (models, "greedy_swap"),
            (models, "allocate_dual"),
            (models, "allocate_unified"),
            (swapping, "greedy_swap"),
            (batch, "required_registers"),
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
        loop = max(all_kernels(), key=lambda k: len(k.graph))
        chain = LoopChain(loop.graph, machine)
        for model, budget in POINTS:
            for estimator in SwapEstimator:
                summary, evaluation = chain.materialize(
                    loop, model, budget, estimator
                )
                assert evaluation.requirement.registers == summary.registers
        swapped = chain.materialize(
            loop, Model.SWAPPED, 6, SwapEstimator.MAXLIVE
        )[1].requirement
        assert swapped.swap is not None and swapped.dual is not None
