"""Kernel layout of modulo schedules: rows, stages and pipeline depth.

An operation issued at time ``t`` sits in kernel row ``t % II`` and comes
from stage ``t // II`` (paper, Section 4.1); the kernel is ``II`` rows
that hold every operation once, and the pipeline is ``stage_count``
stages deep.
"""

import pytest

from repro.sched.modulo import modulo_schedule
from repro.workloads.kernels import example_loop
from repro.workloads.synthetic import generate_loop


def _schedule(index, machine):
    return modulo_schedule(generate_loop(index).graph, machine)


class TestSyntheticKernels:
    @pytest.mark.parametrize("index", range(6))
    def test_every_op_in_exactly_one_of_ii_rows(self, index, paper_l6):
        schedule = _schedule(index, paper_l6)
        rows = schedule.kernel_rows()
        assert len(rows) == schedule.ii
        placed = sorted(op.op_id for row in rows for op in row)
        assert placed == sorted(op.op_id for op in schedule.graph.operations)

    @pytest.mark.parametrize("index", range(6))
    def test_time_is_stage_times_ii_plus_row(self, index, paper_l6):
        schedule = _schedule(index, paper_l6)
        ii = schedule.ii
        for row, ops in enumerate(schedule.kernel_rows()):
            for op in ops:
                p = schedule.placement(op.op_id)
                assert p.row(ii) == row
                assert p.stage(ii) * ii + row == p.time

    @pytest.mark.parametrize("index", range(6))
    def test_stage_count_covers_the_last_issue(self, index, paper_l6):
        schedule = _schedule(index, paper_l6)
        last = max(p.time for p in schedule.placements.values())
        assert schedule.stage_count == last // schedule.ii + 1
        assert schedule.makespan <= schedule.stage_count * schedule.ii


class TestExampleKernel:
    def test_stage_annotations(self, example_schedule):
        """At II = 1 the first load is stage 0 and the store stage 13."""
        text = example_schedule.format_kernel()
        assert "[0] L1@" in text
        assert "[13] S7@" in text
        for op in example_schedule.graph.operations:
            assert text.count(f" {op.name}@") == 1

    def test_deeper_latency_never_fewer_stages(self, paper_l3, paper_l6):
        shallow = modulo_schedule(example_loop().graph, paper_l3)
        deep = modulo_schedule(example_loop().graph, paper_l6)
        assert deep.stage_count >= shallow.stage_count
