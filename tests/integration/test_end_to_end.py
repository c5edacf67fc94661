"""End-to-end pipeline tests: public API round trips."""

import pytest

import repro
from repro import (
    LoopBuilder,
    Model,
    evaluate_loop,
    modulo_schedule,
    paper_config,
    pressure_report,
    required_registers,
)
from repro.core.dualfile import allocate_dual
from repro.sim.executor import execute_kernel
from repro.workloads import example_loop, quick_suite


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The docstring quickstart must keep working."""
        ev = evaluate_loop(example_loop(), paper_config(3), Model.SWAPPED, 32)
        assert ev.ii >= 1
        assert ev.requirement.registers <= 32

    def test_custom_loop_through_whole_pipeline(self):
        b = LoopBuilder("user-loop")
        x = b.load("x")
        acc = b.placeholder()
        s = b.add(acc, b.mul(x, x), name="sumsq")
        b.bind(acc, s, distance=1)
        b.store(b.mul(s, "scale"), "out")
        loop = b.build(trip_count=500)

        machine = paper_config(6)
        report = pressure_report(loop, machine)
        assert report.swapped <= report.partitioned <= report.unified

        ev = evaluate_loop(loop, machine, Model.PARTITIONED, 16)
        assert ev.fits
        alloc = ev.requirement.dual
        sim = execute_kernel(ev.schedule, alloc, iterations=8)
        assert sim.reads_checked > 0

    def test_requirement_from_schedule(self):
        schedule = modulo_schedule(example_loop().graph, paper_config(3))
        req = required_registers(schedule, Model.PARTITIONED)
        assert req.registers == allocate_dual(schedule).registers_required


class TestSuitePipeline:
    @pytest.mark.parametrize("latency", [3, 6])
    def test_small_suite_full_pipeline(self, latency):
        """Every suite loop survives schedule + all four models + budget."""
        machine = paper_config(latency)
        for loop in quick_suite(12):
            for model in Model:
                ev = evaluate_loop(
                    loop,
                    machine,
                    model,
                    None if model is Model.IDEAL else 64,
                )
                ev.schedule.verify()
                assert ev.requirement.registers >= 0

    def test_runner_smoke(self):
        """The run-everything driver produces all report sections."""
        from repro.experiments.runner import format_suite, run_suite

        text = format_suite(run_suite(n_loops=10, spill_loops=4))
        for marker in (
            "Table 1",
            "Table 2",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "non-consistent dual",
        ):
            assert marker in text
