"""Suite-level ablation claims: totals over a Perfect-Club-like suite.

The per-loop invariants of each extension live next to it (moves never
worsen the swap estimate, n-cluster subfiles stay disjoint, ...).  These
tests pin what only holds in aggregate: over the first loops of the
default 120-loop suite (and its 32-loop spill subset), each ablation moves
the total the way its design claims.
"""

import pytest

from repro.core.dualfile import allocate_dual
from repro.core.models import Model
from repro.core.swapping import SwapEstimator, greedy_swap
from repro.machine.config import clustered_config
from repro.regalloc.allocation import allocate_unified
from repro.sched.modulo import modulo_schedule
from repro.spill.spiller import evaluate_loop
from repro.spill.traffic import aggregate_traffic
from repro.workloads.suite import perfect_club_like

SUITE = 120
SPILL_SUITE = 32


@pytest.fixture(scope="module")
def suite_loops():
    return list(perfect_club_like(SUITE))[:40]


@pytest.fixture(scope="module")
def spill_loops():
    return list(perfect_club_like(SUITE).subset(SPILL_SUITE))


def _swapped_registers(schedule, **kwargs):
    swap = greedy_swap(schedule, **kwargs)
    return allocate_dual(swap.schedule, swap.assignment).registers_required


def test_moves_lower_total_swapped_registers(suite_loops, paper_l6):
    plain = moved = 0
    for loop in suite_loops:
        schedule = modulo_schedule(loop.graph, paper_l6)
        plain += _swapped_registers(schedule)
        moved += _swapped_registers(schedule, allow_moves=True)
    assert moved <= plain


def test_exact_swap_estimator_buys_almost_nothing(suite_loops, paper_l6):
    """Section 4.2: the MaxLive bound is within 5% of exact first-fit."""
    totals = {SwapEstimator.MAXLIVE: 0, SwapEstimator.FIRSTFIT: 0}
    for loop in suite_loops:
        schedule = modulo_schedule(loop.graph, paper_l6)
        for estimator in totals:
            totals[estimator] += _swapped_registers(
                schedule, estimator=estimator
            )
    gap = totals[SwapEstimator.MAXLIVE] - totals[SwapEstimator.FIRSTFIT]
    assert gap <= 0.05 * totals[SwapEstimator.FIRSTFIT]


def _unified_at_32(loops, machine, **knobs):
    return [
        evaluate_loop(loop, machine, Model.UNIFIED, register_budget=32, **knobs)
        for loop in loops[:16]
    ]


def test_longest_lifetime_victim_beats_lowest_id(spill_loops, paper_l6):
    longest = _unified_at_32(spill_loops, paper_l6, victim_policy="longest")
    first = _unified_at_32(spill_loops, paper_l6, victim_policy="first")
    assert sum(ev.cycles for ev in longest) <= 1.05 * sum(
        ev.cycles for ev in first
    )


def test_only_spilling_pays_with_traffic(spill_loops, paper_l6):
    spill = _unified_at_32(spill_loops, paper_l6, pressure_strategy="spill")
    increase = _unified_at_32(
        spill_loops, paper_l6, pressure_strategy="increase_ii"
    )
    # Neither strategy is uniquely broken...
    assert sum(not ev.fits for ev in spill) == sum(
        not ev.fits for ev in increase
    )
    # ...and only spilling adds memory traffic.
    assert aggregate_traffic(spill) >= aggregate_traffic(increase)


def test_more_clusters_shrink_the_subfile_ratio(spill_loops):
    """Per-subfile over unified requirement falls from 1 to 2 to 4."""
    ratio = {}
    for n_clusters in (1, 2, 4):
        machine = clustered_config(n_clusters, fp_latency=6)
        unified = subfile = 0
        for loop in spill_loops[:30]:
            schedule = modulo_schedule(loop.graph, machine)
            registers = allocate_unified(schedule).registers_required
            unified += registers
            subfile += (
                registers
                if n_clusters == 1
                else _swapped_registers(schedule)
            )
        ratio[n_clusters] = subfile / unified
    assert ratio[4] < ratio[2] < ratio[1]
