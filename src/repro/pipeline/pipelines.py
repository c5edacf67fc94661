"""The dict reference: the paper's Section 5.4 loop, written straight.

::

    DO
      modulo scheduling
      register allocation
      IF registers needed > physical registers
        select a value to spill out        (the one with the highest lifetime)
        modify the dependence graph
    UNTIL registers needed <= physical registers

:func:`run_evaluation` is that loop over the readable modules
(:mod:`repro.sched`, :mod:`repro.regalloc`, :mod:`repro.core`,
:func:`repro.spill.spiller.spill_value`), with the two decisions the paper
leaves open taken from :mod:`repro.pipeline.policies`: which value to
spill, and how to raise the II when nothing can be spilled (or under the
``increase_ii`` strategy, which never spills).  :func:`run_pressure` is
its first round without a budget: one schedule measured under every model
(Figures 6/7).

The production evaluator, :class:`repro.kernel.batch.LoopChain`, walks
the same state machine on flat arrays; the differential and golden tests
hold the two bit-identical.  The engine, the kernel, the proof and the
API never import this module; ``validate``'s ``0`` tier and the bench's
``cold_legacy`` scenario load it when they run.

Scheduling dominates the reference's cost, so one bounded memo keeps MIIs
and schedules by content: ``(graph fingerprint, machine fingerprint, min
II)``.  The four models of a point share their first schedule, and a test
that evaluates one loop many times schedules each state once.
:func:`clear_memo` gives a cold start.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, TypeVar

from repro.core.models import Model, required_registers
from repro.core.pressure import PressureReport
from repro.core.swapping import SwapEstimator
from repro.ir.ddg import DependenceGraph
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig
from repro.pipeline.fingerprint import graph_fingerprint, machine_fingerprint
from repro.pipeline.policies import (
    PRESSURE_STRATEGIES,
    get_escalation,
    get_policy,
    pick_victim,
)
from repro.regalloc.lifetimes import lifetimes
from repro.regalloc.maxlive import max_live
from repro.sched.mii import minimum_ii
from repro.sched.modulo import modulo_schedule
from repro.sched.schedule import Schedule
from repro.spill.spiller import LoopEvaluation, spill_value

#: Bound on the memo's entries (MIIs and schedules together).
MEMO_SIZE = 2048

_T = TypeVar("_T")
_memo: OrderedDict[tuple, object] = OrderedDict()


def clear_memo() -> None:
    """Forget every memoized MII and schedule."""
    _memo.clear()


def _memoized(key: tuple, compute: Callable[[], _T]) -> _T:
    value = _memo.get(key)
    if value is None:
        value = _memo[key] = compute()
        if len(_memo) > MEMO_SIZE:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(key)
    return value  # type: ignore[return-value]


def _mii(graph: DependenceGraph, machine: MachineConfig) -> int:
    key = ("mii", graph_fingerprint(graph), machine_fingerprint(machine))
    return _memoized(key, lambda: minimum_ii(graph, machine).mii)


def _schedule(
    graph: DependenceGraph, machine: MachineConfig, min_ii: int
) -> Schedule:
    key = (
        "schedule",
        graph_fingerprint(graph),
        machine_fingerprint(machine),
        min_ii,
    )
    return _memoized(
        key, lambda: modulo_schedule(graph, machine, min_ii=min_ii)
    )


def run_pressure(
    loop: Loop,
    machine: MachineConfig,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
) -> PressureReport:
    """Schedule ``loop`` once and measure all models' register needs."""
    schedule = _schedule(loop.graph, machine, 1)
    lts = lifetimes(schedule)

    def registers(model: Model) -> int:
        return required_registers(
            schedule, model, swap_estimator, lts=lts
        ).registers

    return PressureReport(
        loop=loop,
        machine=machine,
        schedule=schedule,
        mii=_mii(loop.graph, machine),
        unified=registers(Model.UNIFIED),
        partitioned=registers(Model.PARTITIONED),
        swapped=registers(Model.SWAPPED),
        max_live=max_live(lts.values(), schedule.ii),
    )


def run_evaluation(
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
    """Schedule, allocate and spill ``loop`` until it fits the budget.

    ``register_budget`` is the size of the register file: of the single
    file for Unified, and of *each subfile* for Partitioned/Swapped.
    ``None`` (or the Ideal model) disables spilling.

    Each round schedules the current graph at the current II floor and
    measures its requirement.  A round over budget spills the policy's
    victim; with no victim it raises the floor, and the escalation gives up
    (``fits=False``) once the requirement stopped shrinking.  When
    ``max_rounds`` runs out, the verdict reads the last measured round.
    """
    if pressure_strategy not in PRESSURE_STRATEGIES:
        raise ValueError(f"unknown pressure strategy {pressure_strategy!r}")
    get_policy(victim_policy)
    escalation = get_escalation(ii_escalation)
    budget = None if model is Model.IDEAL else register_budget
    graph = loop.graph
    min_ii = 1
    spilled = ii_increases = stale = 0
    best: int | None = None
    fits: bool | None = None
    schedule = requirement = None
    for _ in range(max_rounds):
        schedule = _schedule(graph, machine, min_ii)
        lts = lifetimes(schedule)
        requirement = required_registers(
            schedule, model, swap_estimator, lts=lts
        )
        if budget is None or requirement.registers <= budget:
            fits = True
            break
        victim = (
            pick_victim(schedule, victim_policy, lts)
            if pressure_strategy == "spill"
            else None
        )
        if victim is not None:
            graph = spill_value(graph, victim)
            spilled += 1
            continue
        if best is None or requirement.registers < best:
            best = requirement.registers
            stale = 0
        else:
            stale += 1
            if escalation.give_up(stale):
                fits = False
                break
        next_ii = escalation.next_ii(schedule.ii)
        if next_ii <= min_ii:
            raise ValueError(
                f"escalation must raise the II (min_ii={min_ii}, "
                f"next={next_ii})"
            )
        min_ii = next_ii
        ii_increases += 1
    if fits is None:
        fits = budget is None or requirement.registers <= budget
    return LoopEvaluation(
        loop=loop,
        machine=machine,
        model=model,
        register_budget=register_budget,
        schedule=schedule,
        requirement=requirement,
        mii=_mii(loop.graph, machine),
        spilled_values=spilled,
        ii_increases=ii_increases,
        fits=fits,
    )


__all__ = ["MEMO_SIZE", "clear_memo", "run_evaluation", "run_pressure"]
