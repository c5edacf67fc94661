"""Lifetime analysis of loop variants.

Per the paper (Section 2): "the register allocator assumed that lifetime of a
value starts when the producer operation is issued, and ends when all the
consumer operations finish" -- the definition required for interruptible,
re-startable code when issued operations always run to completion.

For a value v produced by operation p at time ``t_p`` and consumed by
operations c at time ``t_c`` with dependence distance ``d`` (in iterations):

    start(v) = t_p
    end(v)   = max over consumers of (t_c + d * II + latency(c))

A value with no consumers ends when its producer finishes (it must still be
written to the register file).  Lifetimes are half-open intervals
``[start, end)``; their length for II = 1 equals the per-value register count
of the paper's Table 2 (the example loop sums to 42).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class Lifetime:
    """Half-open live interval of one loop variant."""

    op_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"lifetime of op {self.op_id} must have end > start"
            )

    @property
    def length(self) -> int:
        return self.end - self.start

    def shifted(self, amount: int) -> "Lifetime":
        return Lifetime(self.op_id, self.start + amount, self.end + amount)


def lifetimes(schedule: Schedule) -> dict[int, Lifetime]:
    """Lifetime of every loop variant in a schedule, keyed by producer id.

    Consumers come from one pass over the graph
    (``repro.kernel.consumer_map``: ``graph.consumers`` for every value at
    once) instead of a rescan of all operands per value.
    """
    from repro.kernel import consumer_map

    graph = schedule.graph
    machine = schedule.machine
    ii = schedule.ii
    consumers = consumer_map(graph)
    result: dict[int, Lifetime] = {}
    for op in graph.values():
        start = schedule.time_of(op.op_id)
        end = start + machine.latency_of(op)
        for consumer_id, distance in consumers[op.op_id]:
            finish = (
                schedule.time_of(consumer_id)
                + distance * ii
                + machine.latency_of(graph.op(consumer_id))
            )
            end = max(end, finish)
        result[op.op_id] = Lifetime(op.op_id, start, end)
    return result


def total_lifetime(lts: dict[int, Lifetime]) -> int:
    """Sum of lifetime lengths (the II=1 unified register requirement)."""
    return sum(lt.length for lt in lts.values())


__all__ = ["Lifetime", "lifetimes", "total_lifetime"]
