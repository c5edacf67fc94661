"""Figure 9: density of memory traffic for the four models.

Density is the dynamic average fraction of the memory-bus bandwidth used per
cycle (Section 5.4): spill code adds accesses, so the Unified model's
density rises above the dual models' -- except at L6/R32 where all models
carry heavy spill code and the densities converge.  The Ideal model gives
the workload's intrinsic density floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.performance import ModelRun
from repro.analysis.reporting import BarChart, Table, bar
from repro.core.models import Model
from repro.engine.jobs import EvalResult
from repro.engine.pool import serial_engine
from repro.experiments.figure6 import MODEL_SLOTS
from repro.experiments.figure8 import cell_runs, cells_by_config, jobs
from repro.ir.loop import Loop
from repro.spill.traffic import aggregate_density, aggregate_traffic


@dataclass(frozen=True)
class Figure9Cell:
    """One bar: density of one (latency, budget, model) combination."""

    latency: int
    budget: int
    model: Model
    run: ModelRun
    density: float  # fraction of bus bandwidth, averaged per cycle
    total_accesses: int

    @property
    def label(self) -> str:
        return f"L={self.latency},R={self.budget}"


def build(
    loops: Sequence[Loop], results: Sequence[EvalResult]
) -> list[Figure9Cell]:
    """Traffic density of every cell, from Figure 8's jobs' results."""
    return [
        Figure9Cell(
            latency=latency,
            budget=budget,
            model=model,
            run=run,
            density=aggregate_density(run.evaluations),
            total_accesses=aggregate_traffic(run.evaluations),
        )
        for latency, budget, model, run, _ideal in cell_runs(loops, results)
    ]


def run_figure9(loops: Sequence[Loop]) -> list[Figure9Cell]:
    """Compute the Figure 9 data on a serial engine."""
    return build(loops, serial_engine().map(jobs(loops)))


def density_table(cells: Sequence[Figure9Cell]) -> Table:
    rows = []
    for cell in cells:
        rows.append(
            (
                cell.label,
                cell.model.value,
                f"{cell.density:.3f}",
                cell.total_accesses,
                bar(cell.density, width=30),
            )
        )
    return Table.build(
        ["config", "model", "density", "accesses", ""],
        rows,
        title="Figure 9 -- density of memory traffic (bus fraction/cycle)",
    )


def density_chart(cells: Sequence[Figure9Cell]) -> BarChart:
    """Grouped bars of bus-bandwidth fraction per (config, model)."""
    grid = cells_by_config(cells)
    models = [m for m in Model if any(m in g for g in grid.values())]
    return BarChart(
        title="Figure 9 -- density of memory traffic (bus fraction/cycle)",
        series=tuple(m.value for m in models),
        groups=tuple(
            (label, tuple(by_model[m].density for m in models))
            for label, by_model in grid.items()
        ),
        slots=tuple(MODEL_SLOTS[m.value] for m in models),
        max_value=1.0,
    )


def format_report(cells: Sequence[Figure9Cell]) -> str:
    return density_table(cells).to_text()


__all__ = [
    "Figure9Cell",
    "build",
    "density_chart",
    "density_table",
    "format_report",
    "jobs",
    "run_figure9",
]
