"""Register-requirement bounds of modulo-scheduled loops.

A value of lifetime ``L`` in a loop of initiation interval ``II`` has at
most ``ceil(L / II)`` instances in flight in any kernel row, so a file
without rotation pays that many registers per value.  The rotating file
packs the instances of all values together and needs MaxLive or a little
more.  These tests pin ``ceil(sum L / II) <= MaxLive <= sum ceil(L / II)``
on real schedules and place the unified allocation against it.
"""

import math

import pytest

from repro.regalloc.allocation import allocate_unified
from repro.regalloc.lifetimes import lifetimes, total_lifetime
from repro.regalloc.maxlive import max_live
from repro.sched.modulo import modulo_schedule
from repro.workloads.kernels import all_kernels
from repro.workloads.synthetic import generate_loop


def _per_value_ceilings(lts, ii):
    return sum(math.ceil(lt.length / ii) for lt in lts.values())


def _schedule(index, machine):
    return modulo_schedule(generate_loop(index).graph, machine)


class TestExampleLoop:
    def test_per_value_ceilings_are_the_lengths_at_ii_one(
        self, example_schedule
    ):
        lts = lifetimes(example_schedule)
        assert example_schedule.ii == 1
        assert _per_value_ceilings(lts, 1) == total_lifetime(lts) == 42

    def test_every_bound_meets_at_ii_one(self, example_schedule):
        """At II = 1 the ceilings are exact: per-value registers, MaxLive
        and the rotating allocation all read the paper's 42."""
        lts = lifetimes(example_schedule)
        alloc = allocate_unified(example_schedule)
        assert max_live(lts.values(), 1) == 42
        assert alloc.max_live == alloc.registers_required == 42


class TestSyntheticLoops:
    @pytest.mark.parametrize("index", range(10))
    def test_maxlive_at_least_average_live(self, index, paper_l6):
        schedule = _schedule(index, paper_l6)
        lts = lifetimes(schedule)
        assert max_live(lts.values(), schedule.ii) >= math.ceil(
            total_lifetime(lts) / schedule.ii
        )

    @pytest.mark.parametrize("index", range(10))
    def test_maxlive_at_most_per_value_ceilings(self, index, paper_l6):
        schedule = _schedule(index, paper_l6)
        lts = lifetimes(schedule)
        assert max_live(lts.values(), schedule.ii) <= _per_value_ceilings(
            lts, schedule.ii
        )

    @pytest.mark.parametrize("index", range(10))
    def test_unified_allocation_at_least_maxlive(self, index, paper_l6):
        schedule = _schedule(index, paper_l6)
        alloc = allocate_unified(schedule)
        assert alloc.max_live == max_live(
            lifetimes(schedule).values(), schedule.ii
        )
        assert alloc.registers_required >= alloc.max_live


class TestRotatingAdvantage:
    def test_rotating_file_needs_fewer_registers_over_the_kernels(
        self, paper_l6
    ):
        """One loop may pack worse than its per-value ceilings, but over
        the kernel set the rotating file needs strictly fewer registers."""
        per_value = rotating = 0
        for loop in all_kernels():
            schedule = modulo_schedule(loop.graph, paper_l6)
            per_value += _per_value_ceilings(lifetimes(schedule), schedule.ii)
            rotating += allocate_unified(schedule).registers_required
        assert rotating < per_value
