"""Greedy swapping of operations between clusters (paper, Section 5.2).

After scheduling, the *Swapped* model runs a post-pass that exchanges pairs
of operations to reduce the dual-file register requirement.  Two operations
can swap iff they

* occupy the same kernel cycle (same ``time mod II``),
* execute on the same kind of functional unit, and
* currently sit in different clusters.

Each greedy step evaluates every candidate, applies the one with the largest
reduction of the estimator, and repeats until nothing improves.  The paper's
estimator is the per-cluster MaxLive lower bound ("due to the cost involved
to allocate registers, the registers required ... is estimated by a lower
bound"); an exact first-fit estimator is available for the ablation study.

Swapping serves the two goals of Section 4.1: balancing left-only against
right-only registers, and turning globals into locals by co-locating a
value's consumers.

Extension (``allow_moves=True``): in addition to pairwise swaps, a single
operation may *move* to an idle unit of the same kind in another cluster at
the same kernel cycle.  This approximates the paper's rejected first option
("scheduling operations in the proper cluster") without touching the
scheduler, and is evaluated in the A4 ablation benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.clustering import ClusterAssignment, scheduler_assignment
from repro.core.dualfile import allocate_dual, dual_max_live
from repro.regalloc.lifetimes import Lifetime, lifetimes
from repro.sched.schedule import Schedule


class SwapEstimator(enum.Enum):
    """How a candidate assignment's register requirement is estimated."""

    MAXLIVE = "maxlive"  # the paper's lower-bound estimator
    FIRSTFIT = "firstfit"  # exact allocation (expensive; ablation only)


@dataclass(frozen=True)
class SwapResult:
    """Outcome of the greedy swapping pass."""

    schedule: Schedule
    assignment: ClusterAssignment
    swaps: tuple[tuple[int, int], ...]
    estimate_before: int
    estimate_after: int
    #: (op_id, new_instance) relocations applied when moves are enabled.
    moves: tuple[tuple[int, int], ...] = field(default=())

    @property
    def n_swaps(self) -> int:
        return len(self.swaps)

    @property
    def n_moves(self) -> int:
        return len(self.moves)


def _candidate_pairs(
    schedule: Schedule, assignment: ClusterAssignment
) -> list[tuple[int, int]]:
    """Swappable pairs under the current assignment."""
    by_slot: dict[tuple[int, str], list[int]] = {}
    for op in schedule.graph.operations:
        placement = schedule.placement(op.op_id)
        key = (placement.row(schedule.ii), placement.pool)
        by_slot.setdefault(key, []).append(op.op_id)
    pairs = []
    for ops in by_slot.values():
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if assignment[a] != assignment[b]:
                    pairs.append((a, b))
    return pairs


def _candidate_moves(
    schedule: Schedule,
    instances: dict[int, int],
) -> list[tuple[int, int]]:
    """(op_id, free_instance) relocations to an idle unit elsewhere."""
    machine = schedule.machine
    occupied: dict[tuple[int, str], set[int]] = {}
    for op in schedule.graph.operations:
        placement = schedule.placement(op.op_id)
        key = (placement.row(schedule.ii), placement.pool)
        occupied.setdefault(key, set()).add(instances[op.op_id])
    moves = []
    for op in schedule.graph.operations:
        placement = schedule.placement(op.op_id)
        key = (placement.row(schedule.ii), placement.pool)
        current_cluster = machine.cluster_of_instance(
            placement.pool, instances[op.op_id]
        )
        for instance in range(machine.units(placement.pool)):
            if instance in occupied[key]:
                continue
            if (
                machine.cluster_of_instance(placement.pool, instance)
                != current_cluster
            ):
                moves.append((op.op_id, instance))
    return moves


def greedy_swap(
    schedule: Schedule,
    assignment: ClusterAssignment | None = None,
    estimator: SwapEstimator = SwapEstimator.MAXLIVE,
    max_steps: int = 1000,
    allow_moves: bool = False,
    lts: dict[int, Lifetime] | None = None,
) -> SwapResult:
    """Run the paper's greedy swapping algorithm.

    Returns a :class:`SwapResult` whose ``assignment`` maps every operation
    to its final cluster and whose ``schedule`` has unit instances exchanged
    accordingly (so downstream consumers may keep using unit binding).

    ``lts`` is an optional precomputed ``lifetimes(schedule)`` (the pass
    pipeline memoizes it); swapping and moving never change issue times,
    only unit instances, so the lifetimes stay valid throughout.

    Candidates are evaluated through assignment/instance *overlays* -- no
    ``Schedule`` (and no placement dict) is ever copied per candidate; the
    single :meth:`Schedule.with_instances` copy happens once, on acceptance
    of the final assignment.  This is the readable reference search; the
    production evaluator runs :func:`repro.kernel.swap.greedy_swap_search`
    on a :class:`~repro.kernel.batch.LoopChain` node, which maintains the
    MAXLIVE estimator incrementally per candidate.
    """
    if assignment is None:
        assignment = scheduler_assignment(schedule)
    assignment = dict(assignment)
    if lts is None:
        lts = lifetimes(schedule)
    instances = {
        op.op_id: schedule.placement(op.op_id).instance
        for op in schedule.graph.operations
    }
    machine = schedule.machine

    if estimator is SwapEstimator.MAXLIVE:

        def estimate(asg: ClusterAssignment) -> int:
            return dual_max_live(schedule, asg, lts)

    else:

        def estimate(asg: ClusterAssignment) -> int:
            return allocate_dual(schedule, asg).registers_required

    before = estimate(assignment)
    current = before
    swaps: list[tuple[int, int]] = []
    moves: list[tuple[int, int]] = []

    for _ in range(max_steps):
        best_action: tuple | None = None
        best_value = current

        def consider(action: tuple, value: int) -> None:
            nonlocal best_action, best_value
            if value >= current:
                return  # only strictly improving actions are applied
            if (
                best_action is None
                or value < best_value
                or (value == best_value and action < best_action)
            ):
                best_action = action
                best_value = value

        for a, b in _candidate_pairs(schedule, assignment):
            assignment[a], assignment[b] = assignment[b], assignment[a]
            consider(("swap", a, b), estimate(assignment))
            assignment[a], assignment[b] = assignment[b], assignment[a]

        if allow_moves:
            for op_id, instance in _candidate_moves(schedule, instances):
                placement = schedule.placement(op_id)
                new_cluster = machine.cluster_of_instance(
                    placement.pool, instance
                )
                old_cluster = assignment[op_id]
                assignment[op_id] = new_cluster
                consider(("move", op_id, instance), estimate(assignment))
                assignment[op_id] = old_cluster

        if best_action is None:
            break
        if best_action[0] == "swap":
            _, a, b = best_action
            assignment[a], assignment[b] = assignment[b], assignment[a]
            instances[a], instances[b] = instances[b], instances[a]
            swaps.append((a, b))
        else:
            _, op_id, instance = best_action
            placement = schedule.placement(op_id)
            instances[op_id] = instance
            assignment[op_id] = machine.cluster_of_instance(
                placement.pool, instance
            )
            moves.append((op_id, instance))
        current = best_value

    changed = {
        op_id: inst
        for op_id, inst in instances.items()
        if inst != schedule.placement(op_id).instance
    }
    final_schedule = (
        schedule.with_instances(changed) if changed else schedule
    )
    return SwapResult(
        schedule=final_schedule,
        assignment=assignment,
        swaps=tuple(swaps),
        estimate_before=before,
        estimate_after=current,
        moves=tuple(moves),
    )


__all__ = ["SwapEstimator", "SwapResult", "greedy_swap"]
