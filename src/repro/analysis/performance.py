"""Workload-level performance aggregation (Figure 8).

The paper evaluates performance as the initiation interval under a perfect
memory system: a loop's cost is ``trip_count * II``.  A model's performance
on a workload is reported *relative to the Ideal machine* (infinite
registers), so Ideal is 1.0 and spill-induced II growth pushes the other
models below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.models import Model
from repro.machine.config import MachineConfig
from repro.spill.spiller import LoopEvaluation


def total_cycles(evaluations: Sequence[LoopEvaluation]) -> int:
    """Sum of ``trip_count * II`` over the workload."""
    return sum(ev.cycles for ev in evaluations)


def relative_performance(
    evaluations: Sequence[LoopEvaluation],
    ideal: Sequence[LoopEvaluation],
) -> float:
    """Workload speed of a model relative to infinite registers (<= 1.0)."""
    model_cycles = total_cycles(evaluations)
    ideal_cycles = total_cycles(ideal)
    return ideal_cycles / model_cycles if model_cycles else 0.0


@dataclass(frozen=True)
class ModelRun:
    """Evaluations of every loop of a workload under one model."""

    model: Model
    machine: MachineConfig
    register_budget: int | None
    evaluations: tuple[LoopEvaluation, ...]

    @property
    def cycles(self) -> int:
        return total_cycles(self.evaluations)

    @property
    def total_spills(self) -> int:
        return sum(ev.spilled_values for ev in self.evaluations)

    @property
    def loops_spilled(self) -> int:
        return sum(1 for ev in self.evaluations if ev.spilled_values)

    @property
    def loops_not_fitting(self) -> int:
        return sum(1 for ev in self.evaluations if not ev.fits)


__all__ = [
    "ModelRun",
    "relative_performance",
    "total_cycles",
]
