"""Unit tests for performance aggregation."""

import pytest

from repro.analysis.performance import (
    ModelRun,
    relative_performance,
    total_cycles,
)
from repro.core.models import Model
from repro.spill.spiller import evaluate_loop
from repro.workloads.kernels import example_loop, make_kernel


def _model_run(loops, machine, model, register_budget):
    """A workload under one model and budget, evaluated loop by loop."""
    return ModelRun(
        model=model,
        machine=machine,
        register_budget=register_budget,
        evaluations=tuple(
            evaluate_loop(loop, machine, model, register_budget)
            for loop in loops
        ),
    )


@pytest.fixture(scope="module")
def small_workload():
    return [example_loop(trip_count=100), make_kernel("daxpy")]


class TestRunModel:
    def test_ideal_run(self, small_workload, paper_l3):
        run = _model_run(small_workload, paper_l3, Model.IDEAL, None)
        assert len(run.evaluations) == 2
        assert run.total_spills == 0
        assert run.loops_not_fitting == 0

    def test_budgeted_run_spills(self, small_workload, paper_l6):
        run = _model_run(small_workload, paper_l6, Model.UNIFIED, 16)
        assert run.loops_spilled >= 1
        assert run.total_spills >= run.loops_spilled

    def test_cycles_sum(self, small_workload, paper_l3):
        run = _model_run(small_workload, paper_l3, Model.IDEAL, None)
        assert run.cycles == total_cycles(run.evaluations)
        assert run.cycles == sum(ev.cycles for ev in run.evaluations)


class TestRelativePerformance:
    def test_ideal_is_one(self, small_workload, paper_l3):
        ideal = _model_run(small_workload, paper_l3, Model.IDEAL, None)
        assert relative_performance(
            ideal.evaluations, ideal.evaluations
        ) == pytest.approx(1.0)

    def test_spilling_costs_performance(self, small_workload, paper_l6):
        ideal = _model_run(small_workload, paper_l6, Model.IDEAL, None)
        tight = _model_run(small_workload, paper_l6, Model.UNIFIED, 12)
        perf = relative_performance(tight.evaluations, ideal.evaluations)
        assert perf < 1.0

    def test_model_ordering(self, small_workload, paper_l6):
        """unified <= partitioned <= ~swapped under a tight budget."""
        ideal = _model_run(small_workload, paper_l6, Model.IDEAL, None)
        perfs = {}
        for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
            run = _model_run(small_workload, paper_l6, model, 16)
            perfs[model] = relative_performance(
                run.evaluations, ideal.evaluations
            )
        assert perfs[Model.UNIFIED] <= perfs[Model.PARTITIONED] + 1e-9
        assert perfs[Model.PARTITIONED] <= perfs[Model.SWAPPED] + 0.05


class TestAggregationEdgeCases:
    def test_relative_performance_empty_is_zero(self):
        assert relative_performance([], []) == 0.0

    def test_total_cycles_empty(self):
        assert total_cycles([]) == 0

    def test_loops_not_fitting_counted(self, small_workload, paper_l6):
        run = _model_run(small_workload, paper_l6, Model.UNIFIED, 4)
        assert 0 <= run.loops_not_fitting <= len(small_workload)
