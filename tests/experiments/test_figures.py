"""Tests for the Figure 6/7/8/9 experiment drivers.

These use a small suite; the paper-scale shapes are validated on the full
suite in EXPERIMENTS.md.  The assertions here pin the *relations* the paper
reports (dual left of unified, swapped >= partitioned, spill code raising
traffic) which must hold at any suite size.
"""

import pytest

from repro.core.models import Model
from repro.experiments import figure6, figure7, figure8, figure9
from repro.workloads.suite import quick_suite

SUITE = 40
SPILL_SUITE = 16


@pytest.fixture(scope="module")
def loops():
    return list(quick_suite(SUITE))


@pytest.fixture(scope="module")
def spill_loops():
    return list(quick_suite(SUITE).subset(SPILL_SUITE))


@pytest.fixture(scope="module")
def fig6(loops):
    return figure6.run_figure6(loops)


@pytest.fixture(scope="module")
def fig7(loops):
    return figure7.run_figure7(loops)


@pytest.fixture(scope="module")
def fig8(spill_loops):
    return figure8.run_figure8(spill_loops)


@pytest.fixture(scope="module")
def fig9(spill_loops):
    return figure9.run_figure9(spill_loops)


class TestFigure6:
    def test_two_latency_sets(self, fig6):
        assert [d.latency for d in fig6] == [3, 6]

    def test_partitioned_dominates_unified(self, fig6):
        # Small epsilon: first-fit non-monotonicity can flip a single loop
        # across a grid threshold; the curves dominate statistically.
        for dist in fig6:
            for point_u, point_p in zip(
                dist.curves["unified"].points,
                dist.curves["partitioned"].points,
            ):
                assert point_p.fraction >= point_u.fraction - 0.03

    def test_swapped_dominates_partitioned(self, fig6):
        for dist in fig6:
            for point_p, point_s in zip(
                dist.curves["partitioned"].points,
                dist.curves["swapped"].points,
            ):
                assert point_s.fraction >= point_p.fraction - 0.03

    def test_latency6_shifts_curves_right(self, fig6):
        l3, l6 = fig6
        assert l6.curves["unified"].at(32) <= l3.curves["unified"].at(32)

    def test_report_renders(self, fig6):
        text = figure6.format_report(fig6)
        assert "Figure 6" in text and "latency 6" in text


class TestFigure7:
    def test_weighted_curves_monotone(self, fig7):
        for dist in fig7:
            for curve in dist.curves.values():
                fractions = [p.fraction for p in curve.points]
                assert fractions == sorted(fractions)

    def test_partitioned_still_dominates(self, fig7):
        for dist in fig7:
            assert dist.curves["partitioned"].at(32) >= dist.curves[
                "unified"
            ].at(32)

    def test_report_says_cycles(self, fig7):
        assert "cycles" in figure7.format_report(fig7)


class TestFigure8:
    def test_grid_complete(self, fig8):
        combos = {(c.latency, c.budget, c.model) for c in fig8}
        assert len(combos) == 2 * 2 * 4

    def test_ideal_is_one(self, fig8):
        for cell in fig8:
            if cell.model is Model.IDEAL:
                assert cell.performance == pytest.approx(1.0)
            else:
                assert cell.performance <= 1.0 + 1e-9

    def test_dual_beats_unified_everywhere(self, fig8):
        perf = {
            (c.latency, c.budget, c.model): c.performance for c in fig8
        }
        for latency in (3, 6):
            for budget in (32, 64):
                assert (
                    perf[(latency, budget, Model.PARTITIONED)]
                    >= perf[(latency, budget, Model.UNIFIED)] - 1e-9
                )

    def test_more_registers_never_hurt(self, fig8):
        perf = {
            (c.latency, c.budget, c.model): c.performance for c in fig8
        }
        for latency in (3, 6):
            for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
                assert (
                    perf[(latency, 64, model)]
                    >= perf[(latency, 32, model)] - 1e-9
                )

    def test_partitioned_near_ideal_at_64(self, fig8):
        perf = {
            (c.latency, c.budget, c.model): c.performance for c in fig8
        }
        assert perf[(3, 64, Model.PARTITIONED)] >= 0.99
        assert perf[(6, 64, Model.PARTITIONED)] >= 0.95

    def test_unified_l6_r32_is_the_worst_cell(self, fig8):
        perf = {
            (c.latency, c.budget, c.model): c.performance for c in fig8
        }
        assert perf[(6, 32, Model.UNIFIED)] == min(perf.values())

    def test_report_renders(self, fig8):
        text = figure8.format_report(fig8)
        assert "Figure 8" in text and "L=6,R=32" in text


class TestFigure9:
    def test_grid_complete(self, fig9):
        assert len(fig9) == 16

    def test_densities_are_fractions(self, fig9):
        for cell in fig9:
            assert 0.0 <= cell.density <= 1.0

    def test_unified_never_less_traffic_than_dual(self, fig9):
        traffic = {
            (c.latency, c.budget, c.model): c.total_accesses for c in fig9
        }
        for latency in (3, 6):
            for budget in (32, 64):
                assert (
                    traffic[(latency, budget, Model.UNIFIED)]
                    >= traffic[(latency, budget, Model.PARTITIONED)]
                )

    def test_ideal_density_is_floor(self, fig9):
        dens = {(c.latency, c.budget, c.model): c.density for c in fig9}
        for latency in (3, 6):
            for budget in (32, 64):
                for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED):
                    assert (
                        dens[(latency, budget, model)]
                        >= dens[(latency, budget, Model.IDEAL)] - 1e-9
                    )

    def test_report_renders(self, fig9):
        assert "Figure 9" in figure9.format_report(fig9)
