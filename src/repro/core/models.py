"""The four register-file models evaluated in the paper (Section 5.2).

* **Ideal** -- infinitely many registers; upper bound on performance.
* **Unified** -- a traditional unified file *and* the consistent dual file
  (both subfiles duplicate every value, so capacity equals a single file).
* **Partitioned** -- the non-consistent dual file with the scheduler's own
  cluster assignment and no swapping.
* **Swapped** -- Partitioned plus the greedy swapping post-pass.

:func:`required_registers` maps a schedule to the register requirement under
each model; the spiller (:mod:`repro.spill`) drives it in a loop when a
finite register file forces spill code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.clustering import ClusterAssignment, scheduler_assignment
from repro.core.dualfile import DualAllocation, allocate_dual
from repro.core.swapping import SwapEstimator, SwapResult, greedy_swap
from repro.regalloc.allocation import UnifiedAllocation, allocate_unified
from repro.regalloc.lifetimes import Lifetime
from repro.sched.schedule import Schedule


class Model(enum.Enum):
    """Register-file organization under evaluation."""

    IDEAL = "ideal"
    UNIFIED = "unified"
    PARTITIONED = "partitioned"
    SWAPPED = "swapped"

    @property
    def is_dual(self) -> bool:
        return self in (Model.PARTITIONED, Model.SWAPPED)


@dataclass(frozen=True)
class Requirement:
    """Register requirement of one schedule under one model."""

    model: Model
    registers: int
    #: Unified allocation (Ideal/Unified models).
    unified: UnifiedAllocation | None = None
    #: Dual allocation (Partitioned/Swapped models).
    dual: DualAllocation | None = None
    #: Swapping outcome (Swapped model only).
    swap: SwapResult | None = None

    @property
    def assignment(self) -> ClusterAssignment | None:
        if self.dual is not None:
            return self.dual.assignment
        return None


def unified_requirement(
    schedule: Schedule,
    model: Model = Model.UNIFIED,
    lts: dict[int, Lifetime] | None = None,
    unified: UnifiedAllocation | None = None,
) -> Requirement:
    """Requirement of the single-file models (Ideal reports it too)."""
    if unified is None:
        unified = allocate_unified(schedule, lts=lts)
    return Requirement(
        model=model, registers=unified.registers_required, unified=unified
    )


def partitioned_requirement(
    schedule: Schedule,
    assignment: ClusterAssignment | None = None,
    lts: dict[int, Lifetime] | None = None,
) -> Requirement:
    """Requirement of the dual file under the scheduler's own assignment."""
    if assignment is None:
        assignment = scheduler_assignment(schedule)
    dual = allocate_dual(schedule, assignment, lts=lts)
    return Requirement(
        model=Model.PARTITIONED, registers=dual.registers_required, dual=dual
    )


def swapped_requirement(
    schedule: Schedule,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
    lts: dict[int, Lifetime] | None = None,
) -> Requirement:
    """Requirement of the dual file after the greedy swapping post-pass.

    Swapping and moving preserve issue times, so a precomputed ``lts``
    stays valid for the swapped schedule's allocation too.
    """
    swap = greedy_swap(schedule, estimator=swap_estimator, lts=lts)
    dual = allocate_dual(swap.schedule, swap.assignment, lts=lts)
    return Requirement(
        model=Model.SWAPPED,
        registers=dual.registers_required,
        dual=dual,
        swap=swap,
    )


def required_registers(
    schedule: Schedule,
    model: Model,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
    lts: dict[int, Lifetime] | None = None,
    assignment: ClusterAssignment | None = None,
) -> Requirement:
    """Compute the register requirement of ``schedule`` under ``model``.

    The Ideal model reports the unified requirement (useful for statistics)
    but callers must not apply a budget to it.

    ``lts`` (a precomputed ``lifetimes(schedule)``) and ``assignment`` (a
    precomputed ``scheduler_assignment(schedule)``) let a caller share
    analysis across models.
    """
    if model in (Model.IDEAL, Model.UNIFIED):
        return unified_requirement(schedule, model, lts=lts)
    if model is Model.PARTITIONED:
        return partitioned_requirement(schedule, assignment, lts=lts)
    if model is Model.SWAPPED:
        return swapped_requirement(schedule, swap_estimator, lts=lts)
    raise ValueError(f"unknown model {model!r}")  # pragma: no cover


__all__ = [
    "Model",
    "Requirement",
    "partitioned_requirement",
    "required_registers",
    "swapped_requirement",
    "unified_requirement",
]
