"""Integration tests: the paper's qualitative claims on a mid-size suite.

These drive the complete pipeline (suite -> schedule -> allocate -> swap ->
spill -> aggregate) and assert the *relationships* the paper reports.  The
absolute percentages are the report's (``repro.report.expected`` and the
paper-delta table of ``repro report``); relationships must hold at any
suite size.
"""

import pytest

from repro.analysis.distributions import fraction_fitting
from repro.analysis.performance import ModelRun, relative_performance
from repro.core.models import Model
from repro.core.pressure import pressure_report
from repro.engine.jobs import evaluate_job
from repro.engine.pool import Engine
from repro.machine.config import paper_config
from repro.spill.traffic import aggregate_traffic
from repro.workloads.suite import quick_suite

SUITE_SIZE = 60


@pytest.fixture(scope="module")
def loops():
    return list(quick_suite(SUITE_SIZE))


@pytest.fixture(scope="module")
def reports_l6(loops):
    machine = paper_config(6)
    return [pressure_report(loop, machine) for loop in loops]


class TestRegisterRequirementClaims:
    def test_partitioning_reduces_requirements(self, reports_l6):
        """Section 5.3: partitioning produces a significant improvement."""
        assert sum(r.partitioned for r in reports_l6) < sum(
            r.unified for r in reports_l6
        )

    def test_more_loops_allocatable_at_32(self, reports_l6):
        """Conclusions: more loops fit a 32-register file with the dual."""
        unified = fraction_fitting([r.unified for r in reports_l6], 32)
        partitioned = fraction_fitting(
            [r.partitioned for r in reports_l6], 32
        )
        assert partitioned > unified

    def test_swapping_adds_smaller_improvement(self, reports_l6):
        """Section 5.3: swapped improves over partitioned, but less than
        partitioned improves over unified."""
        unified = sum(r.unified for r in reports_l6)
        partitioned = sum(r.partitioned for r in reports_l6)
        swapped = sum(r.swapped for r in reports_l6)
        assert swapped <= partitioned
        assert (partitioned - swapped) < (unified - partitioned)

    def test_improvement_grows_with_requirements(self, loops):
        """Section 5.3: partitioning gains more on configurations that
        require more registers (latency 6 vs latency 3)."""
        gain = {}
        for latency in (3, 6):
            machine = paper_config(latency)
            reports = [pressure_report(loop, machine) for loop in loops]
            gain[latency] = sum(r.unified - r.partitioned for r in reports)
        assert gain[6] > gain[3]


def _model_runs(loops, machine, budgets):
    """One ModelRun per ``{model: budget}`` entry, from one engine map."""
    points = list(budgets.items())
    results = Engine(workers=0, cache=None).map(
        [
            evaluate_job(loop, machine, model, budget)
            for model, budget in points
            for loop in loops
        ]
    )
    n = len(loops)
    return {
        model: ModelRun(
            model=model,
            machine=machine,
            register_budget=budget,
            evaluations=tuple(results[i * n:(i + 1) * n]),
        )
        for i, (model, budget) in enumerate(points)
    }


class TestPerformanceClaims:
    @pytest.fixture(scope="class")
    def spill_loops(self, loops):
        return loops[:24]

    @pytest.fixture(scope="class")
    def runs_l6_r32(self, spill_loops):
        return _model_runs(
            spill_loops,
            paper_config(6),
            {m: None if m is Model.IDEAL else 32 for m in Model},
        )

    def test_unified_degrades_most(self, runs_l6_r32):
        ideal = runs_l6_r32[Model.IDEAL].evaluations
        perf = {
            m: relative_performance(r.evaluations, ideal)
            for m, r in runs_l6_r32.items()
        }
        assert perf[Model.UNIFIED] < perf[Model.PARTITIONED]
        assert perf[Model.UNIFIED] < 1.0

    def test_swapped_at_least_partitioned_where_it_hurts(self, runs_l6_r32):
        """Section 5.4: the expensive swapping algorithm is justified where
        performance is highly degraded."""
        ideal = runs_l6_r32[Model.IDEAL].evaluations
        part = relative_performance(
            runs_l6_r32[Model.PARTITIONED].evaluations, ideal
        )
        swapped = relative_performance(
            runs_l6_r32[Model.SWAPPED].evaluations, ideal
        )
        assert swapped >= part - 0.01

    def test_spill_code_is_the_mechanism(self, runs_l6_r32):
        """The unified model's loss must coincide with more spill traffic."""
        assert (
            runs_l6_r32[Model.UNIFIED].total_spills
            > runs_l6_r32[Model.PARTITIONED].total_spills
        )
        assert aggregate_traffic(
            runs_l6_r32[Model.UNIFIED].evaluations
        ) > aggregate_traffic(runs_l6_r32[Model.IDEAL].evaluations)

    def test_dual_near_ideal_at_l3_r32(self, spill_loops):
        """Section 5.4: at latency 3 with 32 registers the dual models almost
        reach infinite-register performance."""
        runs = _model_runs(
            spill_loops,
            paper_config(3),
            {Model.IDEAL: None, Model.SWAPPED: 32},
        )
        perf = relative_performance(
            runs[Model.SWAPPED].evaluations, runs[Model.IDEAL].evaluations
        )
        assert perf > 0.95
