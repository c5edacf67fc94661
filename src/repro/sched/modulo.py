"""Iterative modulo scheduling (Rau [7], as refined in Rau's IMS).

The scheduler tries successive candidate IIs starting at
``MII = max(ResMII, RecMII)``.  For each II it runs the classic IMS loop:

1. pick the unscheduled operation with the greatest height;
2. compute its earliest start from its *scheduled* predecessors;
3. take the first free slot (modulo reservation table) in the II-wide
   window ``[Estart, Estart + II - 1]``, displacing any scheduled
   successors whose dependences become violated;
4. stop when everything is placed or the operation budget is exhausted
   (then try II + 1).

Rau's IMS forces an operation onto an occupied slot when the window has
no free one; at II >= ResMII that cannot happen here (see :func:`_attempt`).

The modulo reservation table binds each operation to a concrete unit
instance; instance parity defines the operation's initial cluster for the
dual-register-file models (the paper schedules for maximum performance first
and partitions afterwards, Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.ir.ddg import DependenceGraph
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig
from repro.sched.mii import MiiReport, edge_delay, minimum_ii
from repro.sched.priority import heights
from repro.sched.schedule import Placement, Schedule, ScheduleError


class SchedulingFailure(RuntimeError):
    """No schedule found up to the maximum II."""


@dataclass
class _Slot:
    """Mutable scheduling state of one operation."""

    time: int = -1
    instance: int = -1

    @property
    def scheduled(self) -> bool:
        return self.time >= 0


def modulo_schedule(
    graph: DependenceGraph,
    machine: MachineConfig,
    min_ii: int = 1,
    max_ii: int | None = None,
    budget_factor: int = 16,
) -> Schedule:
    """Modulo-schedule ``graph`` on ``machine`` at the smallest feasible II.

    Args:
        min_ii: Lower bound on the candidate II (used by the spiller's
            rescheduling fallback).
        max_ii: Give up beyond this II (default: a generous bound that any
            list schedule satisfies).
        budget_factor: IMS operation budget per candidate II, as a multiple
            of the number of operations.

    Raises:
        SchedulingFailure: If no II up to ``max_ii`` admits a schedule.
    """
    report = minimum_ii(graph, machine)
    ii = max(report.mii, min_ii)
    if max_ii is None:
        total_delay = sum(
            machine.latency_of(op) for op in graph.operations
        )
        max_ii = max(ii, total_delay + len(graph) + 16)
    while ii <= max_ii:
        placements = _attempt(graph, machine, ii, budget_factor)
        if placements is not None:
            schedule = Schedule(graph, machine, ii, placements)
            schedule.verify()
            return schedule
        ii += 1
    raise SchedulingFailure(
        f"{graph.name}: no schedule up to II={max_ii} (MII={report.mii})"
    )


def schedule_loop(
    loop: Loop, machine: MachineConfig, **kwargs: Any
) -> Schedule:
    """Convenience wrapper of :func:`modulo_schedule` for a :class:`Loop`."""
    return modulo_schedule(loop.graph, machine, **kwargs)


# ----------------------------------------------------------------------
# IMS core
# ----------------------------------------------------------------------
def _attempt(
    graph: DependenceGraph,
    machine: MachineConfig,
    ii: int,
    budget_factor: int,
) -> dict[int, Placement] | None:
    """One IMS attempt at a fixed ``ii``, which must be at least ResMII.

    Returns the placements, or ``None`` when the operation budget runs out.
    A pool of ``units`` instances has ``units * ii`` slots and, at
    ``ii >= ResMII = max over pools of ceil(ops / units)``, at most that
    many operations; so while one is unscheduled some row has a free
    instance, and the window search, which visits every row, finds it.

    Raises:
        ValueError: If the window has no free instance (``ii`` below
            ResMII).
    """
    ops = graph.operations
    h = heights(graph, machine, ii)
    in_edges: dict[int, list] = {op.op_id: [] for op in ops}
    out_edges: dict[int, list] = {op.op_id: [] for op in ops}
    for edge in graph.edges():
        delay = edge_delay(edge, graph, machine)
        in_edges[edge.dst].append((edge.src, delay, edge.distance))
        out_edges[edge.src].append((edge.dst, delay, edge.distance))

    slots = {op.op_id: _Slot() for op in ops}
    # mrt[(row, pool)] -> list of op_id or None, one entry per unit instance.
    mrt: dict[tuple[int, str], list[int | None]] = {}
    for pool in machine.pools:
        for row in range(ii):
            mrt[(row, pool.name)] = [None] * pool.count

    unscheduled = {op.op_id for op in ops}
    budget = budget_factor * len(ops)

    def free_instance(row: int, pool: str) -> int | None:
        entries = mrt[(row, pool)]
        for idx, occupant in enumerate(entries):
            if occupant is None:
                return idx
        return None

    def unschedule(op_id: int) -> None:
        slot = slots[op_id]
        pool = machine.pool_for(graph.op(op_id))
        mrt[(slot.time % ii, pool)][slot.instance] = None
        slot.time = -1
        slot.instance = -1
        unscheduled.add(op_id)

    def place(op_id: int, time: int, instance: int) -> None:
        slot = slots[op_id]
        pool = machine.pool_for(graph.op(op_id))
        mrt[(time % ii, pool)][instance] = op_id
        slot.time = time
        slot.instance = instance
        unscheduled.discard(op_id)

    while unscheduled:
        if budget <= 0:
            return None
        budget -= 1
        op_id = min(unscheduled, key=lambda i: (-h[i], i))
        op = graph.op(op_id)
        pool = machine.pool_for(op)

        estart = 0
        for src, delay, distance in in_edges[op_id]:
            src_slot = slots[src]
            if src_slot.scheduled:
                estart = max(estart, src_slot.time + delay - ii * distance)
        estart = max(0, estart)

        # Search the II-wide window for a free slot.
        chosen_time = None
        chosen_instance = None
        for time in range(estart, estart + ii):
            instance = free_instance(time % ii, pool)
            if instance is not None:
                chosen_time = time
                chosen_instance = instance
                break

        if chosen_time is None or chosen_instance is None:
            raise ValueError(
                f"no free {pool} unit in any row at II={ii}: "
                f"II is below ResMII"
            )

        place(op_id, chosen_time, chosen_instance)

        # Displace scheduled successors whose dependences are now violated.
        for dst, delay, distance in out_edges[op_id]:
            dst_slot = slots[dst]
            if dst == op_id or not dst_slot.scheduled:
                continue
            if dst_slot.time < chosen_time + delay - ii * distance:
                unschedule(dst)

    return {
        op.op_id: Placement(
            time=slots[op.op_id].time,
            pool=machine.pool_for(op),
            instance=slots[op.op_id].instance,
        )
        for op in ops
    }


__all__ = ["SchedulingFailure", "modulo_schedule", "schedule_loop"]
