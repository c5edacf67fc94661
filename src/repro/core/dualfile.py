"""Register allocation for the non-consistent dual register file.

A value stored in several subfiles (a *global* in the two-cluster paper
vocabulary) must occupy the *same* register index in all of them -- they are
consistent copies, written together.  The allocator therefore places values
in decreasing order of how many subfiles they touch: multi-subfile values
first (choosing the smallest shift free in *every* subfile involved), then
the locals of each subfile around them.  For two clusters this reproduces
the paper's numbers exactly: 13 global + 16 right-only = 29 registers in the
example (Table 3), dropping to 23 after swapping (Table 4).

The same code handles any number of clusters (`machine.n_clusters`): with
four clusters a value consumed by clusters {0, 3} is duplicated into exactly
those two subfiles, not all four -- the natural generalization the paper's
Section 4 sketches for other processor organizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clustering import (
    ClusterAssignment,
    ValueClasses,
    classify_values,
    scheduler_assignment,
)
from repro.regalloc.firstfit import (
    AllocationResult,
    IntervalSet,
    PlacedLifetime,
    first_fit_shift,
    registers_required,
    verify_disjoint,
)
from repro.regalloc.lifetimes import Lifetime, lifetimes
from repro.regalloc.maxlive import max_live
from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class DualAllocation:
    """Allocation of one schedule into a non-consistent clustered file."""

    schedule: Schedule
    assignment: ClusterAssignment
    classes: ValueClasses
    lifetimes: dict[int, Lifetime]
    #: One placement per value; it applies in every subfile holding the value.
    placements: dict[int, PlacedLifetime]

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def n_clusters(self) -> int:
        return self.schedule.machine.n_clusters

    def file_value_ids(self, cluster: int) -> frozenset[int]:
        """Values stored in ``cluster``'s subfile."""
        return self.classes.cluster_value_ids(cluster)

    def file_allocation(self, cluster: int) -> AllocationResult:
        """The complete allocation of one subfile."""
        return AllocationResult(
            self.ii,
            {
                op_id: self.placements[op_id]
                for op_id in self.file_value_ids(cluster)
            },
        )

    @property
    def global_registers(self) -> int:
        """Registers occupied by values duplicated across subfiles."""
        placed = [
            self.placements[op_id] for op_id in self.classes.global_ids
        ]
        return registers_required(placed, self.ii)

    def cluster_registers(self, cluster: int) -> int:
        """Registers required by ``cluster``'s subfile."""
        return self.file_allocation(cluster).registers_required

    def local_registers(self, cluster: int) -> int:
        """Registers the locals add on top of the globals in one subfile."""
        return self.cluster_registers(cluster) - self.global_registers

    @property
    def registers_required(self) -> int:
        """Loop requirement: the most loaded subfile decides."""
        return max(
            self.cluster_registers(c) for c in range(self.n_clusters)
        )

    @property
    def per_cluster(self) -> dict[int, int]:
        return {
            c: self.cluster_registers(c) for c in range(self.n_clusters)
        }


def allocate_dual(
    schedule: Schedule,
    assignment: ClusterAssignment | None = None,
    lts: dict[int, Lifetime] | None = None,
) -> DualAllocation:
    """Allocate a schedule's values into the non-consistent clustered file.

    Args:
        assignment: Cluster of each operation; defaults to the scheduler's
            unit binding (the *Partitioned* model).  The swapping pass calls
            this with its improved assignment.
        lts: Precomputed ``lifetimes(schedule)``, for callers (the pass
            pipeline) that already analyzed the schedule.
    """
    if assignment is None:
        assignment = scheduler_assignment(schedule)
    if lts is None:
        lts = lifetimes(schedule)
    classes, placements = _allocate_intervals(schedule, assignment, lts)

    allocation = DualAllocation(
        schedule=schedule,
        assignment=dict(assignment),
        classes=classes,
        lifetimes=lts,
        placements=placements,
    )
    for cluster in range(schedule.machine.n_clusters):
        verify_disjoint(allocation.file_allocation(cluster).placements.values())
    return allocation


def _allocate_intervals(
    schedule: Schedule,
    assignment: ClusterAssignment,
    lts: dict[int, Lifetime],
) -> tuple[ValueClasses, dict[int, PlacedLifetime]]:
    """First-fit every value into each subfile holding it, at one shift."""
    classes = classify_values(schedule, assignment)
    n_clusters = schedule.machine.n_clusters
    occupied = {c: IntervalSet() for c in range(n_clusters)}
    placements: dict[int, PlacedLifetime] = {}
    # Multi-subfile values first (they are the most constrained), then by
    # start time -- the deterministic wands-only convention.
    order = sorted(
        classes.value_clusters,
        key=lambda op_id: (
            -len(classes.value_clusters[op_id]),
            lts[op_id].start,
            op_id,
        ),
    )
    for op_id in order:
        clusters = classes.value_clusters[op_id]
        shift = first_fit_shift(
            lts[op_id],
            schedule.ii,
            tuple(occupied[c] for c in sorted(clusters)),
        )
        placed = PlacedLifetime(lts[op_id], shift, schedule.ii)
        placements[op_id] = placed
        for cluster in clusters:
            occupied[cluster].add(placed.start, placed.end)
    return classes, placements


def dual_max_live(
    schedule: Schedule,
    assignment: ClusterAssignment,
    lts: dict[int, Lifetime] | None = None,
) -> int:
    """Per-cluster MaxLive lower bound on the dual-file requirement.

    This is the estimator the greedy swapping algorithm uses (paper,
    Section 5.2): cheap, and within one register of the first-fit result on
    almost every loop.
    """
    if lts is None:
        lts = lifetimes(schedule)
    classes = classify_values(schedule, assignment)
    worst = 0
    for cluster in range(schedule.machine.n_clusters):
        ids = classes.cluster_value_ids(cluster)
        worst = max(worst, max_live([lts[i] for i in ids], schedule.ii))
    return worst


__all__ = ["DualAllocation", "allocate_dual", "dual_max_live"]
