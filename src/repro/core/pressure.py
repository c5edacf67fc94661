"""Register-pressure reports: all models on one schedule, no spilling.

Figures 6 and 7 of the paper measure register requirements with *unlimited*
registers ("registers have been allocated trying to minimize the number of
registers used, but with no restrictions in the number of registers
available", Section 5.3).  :func:`pressure_report` produces exactly that
triple (Unified / Partitioned / Swapped) for one loop on one machine.

The measurement is the root state of a
:class:`~repro.kernel.batch.LoopChain` (the production evaluator; the pass
pipeline's :func:`repro.pipeline.pipelines.run_pressure` is the reference
it is tested against): this module only defines the report shape and
keeps the historical entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig
from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class PressureReport:
    """Register requirements of one loop under the three finite models."""

    loop: Loop
    machine: MachineConfig
    schedule: Schedule
    mii: int
    unified: int
    partitioned: int
    swapped: int
    max_live: int

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def trip_count(self) -> int:
        return self.loop.trip_count

    def requirement(self, model: Model) -> int:
        if model in (Model.IDEAL, Model.UNIFIED):
            return self.unified
        if model is Model.PARTITIONED:
            return self.partitioned
        return self.swapped


def pressure_report(
    loop: Loop,
    machine: MachineConfig,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
) -> PressureReport:
    """Schedule ``loop`` once and measure all models' register needs."""
    # Imported here: the chain imports the pipeline package, which imports
    # this module for the report dataclass, so the dependency must stay
    # one-way at import time.
    from repro.kernel.batch import LoopChain

    chain = LoopChain(loop.graph, machine)
    pressure = chain.pressure(swap_estimator)
    return PressureReport(
        loop=loop,
        machine=machine,
        schedule=chain.root.schedule,
        mii=pressure.mii,
        unified=pressure.unified,
        partitioned=pressure.partitioned,
        swapped=pressure.swapped,
        max_live=pressure.max_live,
    )


__all__ = ["PressureReport", "pressure_report"]
