"""Pressure-aware schedule compaction (stage-scheduling style post-pass).

The paper's conclusions note that "better scheduling algorithms" could
reduce register requirements further but were left out for compile-time
cost.  This module implements the cheapest useful member of that family, in
the same post-pass spirit as the swapping algorithm:

Each operation has *slack* -- a window of issue times permitted by its
scheduled predecessors, successors and the modulo reservation table.  Moving
a producer later (toward its consumers) shortens its value's lifetime;
moving it earlier can shorten its operands' lifetimes.  The pass greedily
tries every feasible (operation, time) move, re-estimates MaxLive, applies
the best strictly-improving move, and repeats until fixpoint.

This is deliberately estimator-driven, exactly like the paper's swapping
pass, and composes with it: compaction first (it changes issue times),
swapping second (it only exchanges units).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.kernel.lifetimes import lifetime_bounds, max_live_spans
from repro.kernel.loop import lower_loop
from repro.sched.mii import edge_delay
from repro.sched.schedule import Placement, Schedule


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of the compaction pass."""

    schedule: Schedule
    moves: tuple[tuple[int, int, int], ...]  # (op_id, old_time, new_time)
    max_live_before: int
    max_live_after: int

    @property
    def n_moves(self) -> int:
        return len(self.moves)


def _slack_window(
    schedule: Schedule,
    placements: dict[int, Placement],
    op_id: int,
) -> tuple[int, int]:
    """Feasible issue-time window of one op, all else fixed."""
    graph = schedule.graph
    machine = schedule.machine
    ii = schedule.ii
    earliest = 0
    latest = placements[op_id].time + 4 * ii  # bounded look-ahead
    for edge in graph.edges():
        delay = edge_delay(edge, graph, machine)
        if edge.dst == op_id and edge.src != op_id:
            earliest = max(
                earliest,
                placements[edge.src].time + delay - ii * edge.distance,
            )
        if edge.src == op_id and edge.dst != op_id:
            latest = min(
                latest,
                placements[edge.dst].time - delay + ii * edge.distance,
            )
    return earliest, latest


def compact_schedule(
    schedule: Schedule, max_steps: int = 200
) -> CompactionResult:
    """Greedily move operations within their slack to reduce MaxLive."""
    graph = schedule.graph
    machine = schedule.machine
    ii = schedule.ii
    placements = dict(schedule.placements)

    def occupancy() -> dict[tuple[int, str], set[int]]:
        occ: dict[tuple[int, str], set[int]] = {}
        for op_id, p in placements.items():
            occ.setdefault((p.time % ii, p.pool), set()).add(p.instance)
        return occ

    # Trial MaxLive on the lowered loop: only issue times change per trial.
    la = lower_loop(graph, machine)
    times = [placements[op_id].time for op_id in la.ids]

    def estimate() -> int:
        starts, ends = lifetime_bounds(la, times, ii)
        return max_live_spans(zip(starts, ends), ii)

    before = estimate()
    current = before
    moves: list[tuple[int, int, int]] = []

    for _ in range(max_steps):
        occ = occupancy()
        best: tuple[int, int, int] | None = None  # (op_id, time, instance)
        best_value = current
        for op in graph.operations:
            p = placements[op.op_id]
            earliest, latest = _slack_window(schedule, placements, op.op_id)
            if latest < earliest:
                continue
            for time in range(earliest, latest + 1):
                if time == p.time or time < 0:
                    continue
                row = time % ii
                used = occ.get((row, p.pool), set())
                free = [
                    i
                    for i in range(machine.units(p.pool))
                    if i not in used or (i == p.instance and row == p.time % ii)
                ]
                if not free:
                    continue
                instance = p.instance if p.instance in free else free[0]
                index = la.index[op.op_id]
                times[index] = time
                value = estimate()
                times[index] = p.time
                if value < best_value:
                    best = (op.op_id, time, instance)
                    best_value = value
        if best is None:
            break
        op_id, time, instance = best
        old_time = placements[op_id].time
        placements[op_id] = replace(
            placements[op_id], time=time, instance=instance
        )
        times[la.index[op_id]] = time
        moves.append((op_id, old_time, time))
        current = best_value

    result = Schedule(graph, machine, ii, placements)
    result.verify()
    return CompactionResult(
        schedule=result,
        moves=tuple(moves),
        max_live_before=before,
        max_live_after=current,
    )


__all__ = ["CompactionResult", "compact_schedule"]
