"""Spill-victim policies, II escalations and the Section 5.4 strategies.

The paper's Section 5.4 loop has two decision points, each a registry of
named strategies:

* :class:`SpillPolicy` -- *which* value to spill when the register
  requirement exceeds the budget.  The paper's naive policy picks "the value
  with the highest lifetime, which in general will free a higher number of
  registers" and remarks that "more research is required to develop better
  algorithms to spill registers"; the alternatives here are that research
  hook.
* :class:`IIEscalation` -- *what II to try next* when nothing can be
  spilled and the loop must be rescheduled ("reschedule the loop with an
  increased II"), plus when to give up on escalation altogether.

The registries back the ``--policy`` / ``--escalation`` knobs of ``python
-m repro sweep`` and the engine job fingerprints, so every name is a stable
part of the cache key space.

A victim policy is one key over plain per-value facts::

    key(length, ii, consumers, op_id) -> comparable

``length`` is the value's lifetime in cycles, ``ii`` the schedule's
initiation interval, ``consumers`` the value's uses as ``(consumer op id,
distance)`` pairs (one per operand read, in operand order) and ``op_id``
the producer's id.  Among the spillable values (:func:`spillable_values`)
the one with the largest key is spilled; candidates are visited in op-id
order and only a strictly larger key displaces the best so far, so ties go
to the lowest op id.  The production chain
(:meth:`repro.kernel.batch._Node.victim`) and the dict reference
(:func:`pick_victim`) call the same key, so a registered policy runs on
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.ir.ddg import DependenceGraph
from repro.ir.operation import OpType
from repro.kernel import consumer_map

if TYPE_CHECKING:
    from repro.regalloc.lifetimes import Lifetime
    from repro.sched.schedule import Schedule

#: The Section 5.4 alternatives: spill (the paper's choice) or only
#: reschedule at increasing IIs ("this option would produce an extremely
#: inefficient code"; the A3 ablation quantifies it).
PRESSURE_STRATEGIES = ("spill", "increase_ii")

#: ``key(length, ii, consumers, op_id)``; see the module docstring.
VictimKey = Callable[[int, int, Sequence[tuple[int, int]], int], Any]


@dataclass(frozen=True)
class SpillPolicy:
    """A named victim key: the spillable value with the largest key goes."""

    name: str
    key: VictimKey


def spillable_values(
    graph: DependenceGraph,
    consumers: dict[int, list[tuple[int, int]]] | None = None,
) -> list[int]:
    """Values a spill policy may pick: non-spill values with consumers.

    The consumer adjacency is built once for the whole graph
    (:func:`repro.kernel.consumer_map`), not rescanned per value; pass a
    precomputed ``consumers`` map when the caller needs it too.
    """
    if consumers is None:
        consumers = consumer_map(graph)
    result = []
    for op in graph.values():
        if op.is_spill:
            continue
        uses = consumers[op.op_id]
        if not uses:
            continue
        # Skip values already spilled (their only consumer is a spill store).
        if all(
            graph.op(c).is_spill and graph.op(c).optype is OpType.STORE
            for c, _ in uses
        ):
            continue
        result.append(op.op_id)
    return result


def longest(length: int, ii: int, consumers: Sequence, op_id: int) -> int:
    """The paper's naive policy: the highest lifetime."""
    return length


def most_registers(
    length: int, ii: int, consumers: Sequence, op_id: int
) -> int:
    """Most simultaneously-live instances: what the lifetime actually
    costs in registers, ``ceil(length / II)``."""
    return -(-length // ii)


def first(length: int, ii: int, consumers: Sequence, op_id: int) -> int:
    """Lowest op id: a deliberately bad baseline for the ablation."""
    return -op_id


def most_consumers(
    length: int, ii: int, consumers: Sequence, op_id: int
) -> tuple[int, int]:
    """Widest fan-out: the value read at the most consumer endpoints.

    Spilling it collapses one long, many-reader lifetime into a short
    producer-to-store interval plus one tiny reload lifetime per consumer --
    the biggest structural change per spill (ties: longest lifetime).
    """
    return len(consumers), length


def least_traffic(
    length: int, ii: int, consumers: Sequence, op_id: int
) -> tuple[int, int]:
    """Cheapest memory bill: fewest added loads/stores per spilled value.

    Spilling a value adds one store plus one load per distinct
    ``(consumer, distance)`` pair; this policy minimizes that count (ties:
    most registers freed), trading convergence speed for bus bandwidth --
    the quantity Figure 9 measures.
    """
    return -len(set(consumers)), -(-length // ii)


#: Registry backing the CLI/sweep/engine ``policy`` knobs.  Insertion order
#: is the canonical ablation order (the paper's policy first).
SPILL_POLICIES: dict[str, SpillPolicy] = {
    key.__name__: SpillPolicy(key.__name__, key)
    for key in (longest, most_registers, first, most_consumers, least_traffic)
}


def register_policy(policy: SpillPolicy) -> SpillPolicy:
    """Add a custom policy to the registry (name must be unused).

    Registration is per-process: engine worker processes resolve policy
    names against *their own* copy of the registry, and under the ``spawn``
    start method (macOS/Windows default) they re-import this module with
    only the built-ins.  Register custom policies at import time of a
    module the workers also import, or evaluate with ``workers=0``.
    """
    if policy.name in SPILL_POLICIES:
        raise ValueError(f"spill policy {policy.name!r} already registered")
    SPILL_POLICIES[policy.name] = policy
    return policy


def get_policy(name: str) -> SpillPolicy:
    try:
        return SPILL_POLICIES[name]
    except KeyError:
        known = ", ".join(SPILL_POLICIES)
        raise ValueError(
            f"unknown victim policy {name!r} (known: {known})"
        ) from None


def pick_victim(
    schedule: Schedule,
    policy: str = "longest",
    lts: dict[int, Lifetime] | None = None,
) -> int | None:
    """The op id the named policy spills from ``schedule``, or ``None``."""
    # Imported here: this module may be the first of the package to load,
    # and ``repro.regalloc`` imported before ``repro.sched`` trips over
    # their import cycle.
    from repro.regalloc.lifetimes import lifetimes

    key = get_policy(policy).key
    if lts is None:
        lts = lifetimes(schedule)
    consumers = consumer_map(schedule.graph)
    candidates = spillable_values(schedule.graph, consumers)
    if not candidates:
        return None
    ii = schedule.ii
    return max(
        candidates, key=lambda i: key(lts[i].length, ii, consumers[i], i)
    )


# ----------------------------------------------------------------------
# II escalation
# ----------------------------------------------------------------------
@runtime_checkable
class IIEscalation(Protocol):
    """Rescheduling strategy when spilling cannot reduce the requirement."""

    name: str

    def next_ii(self, current_ii: int) -> int:
        """The II to reschedule at after a failed round at ``current_ii``."""

    def give_up(self, stale_escalations: int) -> bool:
        """Abandon the loop after this many non-improving escalations."""


class IncrementEscalation:
    """The paper's fallback: retry at ``II + 1``.

    Plateau detection: when the requirement stops shrinking the pressure is
    issue-burst-bound (the scheduler packs producers densely whatever the
    II) and no amount of rescheduling helps -- give up honestly after
    ``stale_limit`` non-improving escalations instead of spinning to the
    round cap.
    """

    name = "increment"

    def __init__(self, stale_limit: int = 8) -> None:
        self.stale_limit = stale_limit

    def next_ii(self, current_ii: int) -> int:
        return current_ii + 1

    def give_up(self, stale_escalations: int) -> bool:
        return stale_escalations >= self.stale_limit


class GeometricEscalation:
    """Escalate by 50% per round: fewer reschedules on hopeless loops,
    coarser final II.  Same plateau rule as :class:`IncrementEscalation`,
    with a shorter leash (each step forfeits more performance)."""

    name = "geometric"

    def __init__(self, stale_limit: int = 4) -> None:
        self.stale_limit = stale_limit

    def next_ii(self, current_ii: int) -> int:
        return max(current_ii + 1, (current_ii * 3) // 2)

    def give_up(self, stale_escalations: int) -> bool:
        return stale_escalations >= self.stale_limit


II_ESCALATIONS: dict[str, IIEscalation] = {
    esc.name: esc for esc in (IncrementEscalation(), GeometricEscalation())
}


def register_escalation(escalation: IIEscalation) -> IIEscalation:
    """Add a custom escalation strategy (name must be unused).

    Same per-process caveat as :func:`register_policy`: worker processes
    resolve names against their own registry copy, so register at import
    time of a module the workers import too, or run with ``workers=0``.
    """
    if escalation.name in II_ESCALATIONS:
        raise ValueError(
            f"II escalation {escalation.name!r} already registered"
        )
    II_ESCALATIONS[escalation.name] = escalation
    return escalation


def get_escalation(name: str) -> IIEscalation:
    try:
        return II_ESCALATIONS[name]
    except KeyError:
        known = ", ".join(II_ESCALATIONS)
        raise ValueError(
            f"unknown II escalation {name!r} (known: {known})"
        ) from None


__all__ = [
    "GeometricEscalation",
    "IIEscalation",
    "II_ESCALATIONS",
    "IncrementEscalation",
    "PRESSURE_STRATEGIES",
    "SPILL_POLICIES",
    "SpillPolicy",
    "VictimKey",
    "first",
    "get_escalation",
    "get_policy",
    "least_traffic",
    "longest",
    "most_consumers",
    "most_registers",
    "pick_victim",
    "register_escalation",
    "register_policy",
    "spillable_values",
]
