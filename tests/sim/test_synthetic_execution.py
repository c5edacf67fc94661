"""Cycle-level execution of synthetic loops under both file organizations.

The executor checks every register read against the value its producer
wrote, so an allocation that executes cleanly is a correct one.
"""

import pytest

from repro.core.dualfile import allocate_dual
from repro.core.swapping import greedy_swap
from repro.regalloc.allocation import allocate_unified
from repro.sched.modulo import modulo_schedule
from repro.sim.executor import execute_kernel
from repro.workloads.synthetic import generate_loop

ITERATIONS = 5


def _schedule(index, machine):
    return modulo_schedule(generate_loop(index).graph, machine)


@pytest.mark.parametrize("index", range(6))
def test_unified_allocation_executes(index, paper_l6):
    schedule = _schedule(index, paper_l6)
    report = execute_kernel(
        schedule, allocate_unified(schedule), iterations=ITERATIONS
    )
    assert report.iterations == ITERATIONS
    assert report.values_written == ITERATIONS * len(
        list(schedule.graph.values())
    )


@pytest.mark.parametrize("index", range(6))
def test_swapped_dual_allocation_executes(index, paper_l6):
    schedule = _schedule(index, paper_l6)
    swap = greedy_swap(schedule)
    alloc = allocate_dual(swap.schedule, swap.assignment)
    report = execute_kernel(swap.schedule, alloc, iterations=ITERATIONS)
    assert set(report.port_stats) == {"subfile0", "subfile1"}
    assert report.reads_checked > 0
