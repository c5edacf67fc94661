"""The paper's "naive" spiller: graph rewriting plus the evaluation entry.

Section 5.4 pseudo-code::

    DO
      modulo scheduling
      register allocation
      IF registers needed > physical registers
        select a value to spill out        (the one with the highest lifetime)
        modify the dependence graph
    UNTIL registers needed <= physical registers

Spilling a value rewrites the graph: a spill *store* is added after the
producer, and each consumer is redirected to its own spill *load* (so the
spilled value's register lifetime shrinks to producer-to-store, and each
reload lives only from the load to its consumer).  Store and loads are
connected by memory dependences carrying the original iteration distance.

This module owns that graph transform (:func:`spill_value`) and the
:class:`LoopEvaluation` report.  The iterative flow itself -- measure,
spill, escalate the II when nothing is spillable, give up on plateaus --
runs on a :class:`~repro.kernel.batch.LoopChain` (the production
evaluator; :func:`evaluate_loop` is its historical one-point entry), and
is written straight in the dict reference
:func:`repro.pipeline.pipelines.run_evaluation`.  Victim selection and
escalation are pluggable through :mod:`repro.pipeline.policies`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.models import Model, Requirement
from repro.core.swapping import SwapEstimator
from repro.ir.ddg import DependenceGraph, EdgeKind
from repro.ir.loop import Loop
from repro.ir.operation import OpType, ValueRef
from repro.machine.config import MachineConfig
from repro.pipeline.policies import (
    SPILL_POLICIES,
    pick_victim,
    spillable_values,
)
from repro.sched.schedule import Schedule


def __getattr__(name: str) -> object:
    # ``VICTIM_POLICIES`` reflects the policy registry at access time, so
    # a policy registered after import is listed too.
    if name == "VICTIM_POLICIES":
        return tuple(SPILL_POLICIES)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SpillError(RuntimeError):
    """Raised when a value cannot be spilled."""


def spill_value(graph: DependenceGraph, op_id: int) -> DependenceGraph:
    """Return a new graph with the value of ``op_id`` spilled to memory."""
    producer = graph.op(op_id)
    if not producer.defines_value:
        raise SpillError(f"{producer.name} defines no value")
    # One scan of the operands for this value's uses only: the graphs the
    # chain replays are fresh, so a whole-graph consumer map would be built
    # for every value just to read one.
    consumers = graph.consumers(op_id)
    if not consumers:
        raise SpillError(f"{producer.name} has no consumers; nothing to spill")

    new_graph = graph.copy()
    symbol = f"spill.{producer.name}"
    store = new_graph.add_operation(
        OpType.STORE,
        (ValueRef(op_id, 0),),
        name=f"sst.{producer.name}",
        symbol=symbol,
        is_spill=True,
    )
    # One reload per (consumer, distance); a consumer using the value twice
    # at the same distance shares one load.
    reloads: dict[tuple[int, int], int] = {}
    for consumer, distance in consumers:
        key = (consumer.op_id, distance)
        if key in reloads:
            continue
        load = new_graph.add_operation(
            OpType.LOAD,
            (),
            name=f"sld.{producer.name}.{consumer.name}",
            symbol=symbol,
            is_spill=True,
        )
        new_graph.add_edge(
            store.op_id,
            load.op_id,
            kind=EdgeKind.MEMORY,
            distance=distance,
            min_delay=1,
        )
        reloads[key] = load.op_id
    rewired: set[int] = set()
    for consumer, _distance in consumers:
        if consumer.op_id in rewired:
            continue
        rewired.add(consumer.op_id)
        operands = []
        for operand in new_graph.op(consumer.op_id).operands:
            if isinstance(operand, ValueRef) and operand.producer == op_id:
                operands.append(ValueRef(reloads[(consumer.op_id, operand.distance)], 0))
            else:
                operands.append(operand)
        new_graph.set_operands(consumer.op_id, operands)
    return new_graph


@dataclass(frozen=True)
class LoopEvaluation:
    """Final state of one loop under one model and register budget."""

    loop: Loop
    machine: MachineConfig
    model: Model
    register_budget: int | None
    schedule: Schedule
    requirement: Requirement
    mii: int
    spilled_values: int
    ii_increases: int
    fits: bool

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def trip_count(self) -> int:
        return self.loop.trip_count

    @property
    def memory_bandwidth(self) -> int:
        return self.machine.memory_bandwidth

    @property
    def cycles(self) -> int:
        """Steady-state execution cycles: trip count times the final II."""
        return self.loop.trip_count * self.ii

    @property
    def memory_ops_per_iteration(self) -> int:
        return len(self.schedule.graph.memory_operations())

    @property
    def spill_ops_per_iteration(self) -> int:
        return sum(
            1 for op in self.schedule.graph.memory_operations() if op.is_spill
        )

    @property
    def traffic_density(self) -> float:
        """Average fraction of the memory bus used per cycle."""
        bandwidth = self.machine.memory_bandwidth
        return self.memory_ops_per_iteration / (self.ii * bandwidth)


def evaluate_loop(
    loop: Loop,
    machine: MachineConfig,
    model: Model,
    register_budget: int | None = None,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
    max_rounds: int = 200,
    victim_policy: str = "longest",
    pressure_strategy: str = "spill",
    ii_escalation: str = "increment",
) -> LoopEvaluation:
    """Run the full schedule/allocate/spill pipeline for one loop.

    ``register_budget`` is the size of the register file: of the single file
    for Unified, and of *each subfile* for Partitioned/Swapped (the paper
    compares a 32-register unified file against a dual file of two
    32-register subfiles -- same specifier width, roughly the same area as
    the consistent dual implementation).  ``None`` (or the Ideal model)
    disables spilling.

    ``victim_policy`` names a :data:`~repro.pipeline.policies.SPILL_POLICIES`
    entry; ``pressure_strategy`` selects among the Section 5.4 alternatives
    (``"spill"`` is the paper's choice, ``"increase_ii"`` never spills and
    only reschedules); ``ii_escalation`` names how the II grows when
    rescheduling (:data:`~repro.pipeline.policies.II_ESCALATIONS`).

    The point walks a one-loop :class:`~repro.kernel.batch.LoopChain`
    and returns its materialized exit node.
    """
    # Imported here: the chain imports this module for the report
    # dataclass and the graph transform, so the dependency must stay
    # one-way at import time.
    from repro.kernel.batch import LoopChain

    chain = LoopChain(
        loop.graph,
        machine,
        victim_policy=victim_policy,
        pressure_strategy=pressure_strategy,
        ii_escalation=ii_escalation,
    )
    return chain.materialize(
        loop, model, register_budget, swap_estimator, max_rounds
    )[1]


__all__ = [
    "LoopEvaluation",
    "SpillError",
    "VICTIM_POLICIES",
    "evaluate_loop",
    "pick_victim",
    "spill_value",
    "spillable_values",
]
