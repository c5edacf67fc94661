"""Figure 8: performance of the four models with limited register files.

For latency in {3, 6} and register budget in {32, 64}, every loop runs the
full schedule/allocate/spill pipeline under Ideal, Unified, Partitioned and
Swapped, and the workload performance is reported relative to Ideal
(``sum(trips * II_ideal) / sum(trips * II_model)``).

Shapes the paper reports: with 64 registers the dual models nearly match
Ideal while Unified loses at latency 6; with 32 registers Unified degrades
heavily, the dual models stay near Ideal at latency 3, and Swapped beats
Partitioned exactly where pressure hurts most (L6/R32).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.performance import ModelRun, relative_performance
from repro.analysis.reporting import BarChart, Table, bar
from repro.core.models import Model
from repro.engine.jobs import EvalJob, EvalResult, evaluate_job
from repro.engine.pool import serial_engine
from repro.experiments.figure6 import LATENCIES, MODEL_SLOTS
from repro.ir.loop import Loop
from repro.machine.config import paper_config

BUDGETS = (32, 64)


@dataclass(frozen=True)
class Figure8Cell:
    """One bar of the figure: one (latency, budget, model) combination."""

    latency: int
    budget: int
    model: Model
    run: ModelRun
    performance: float  # relative to Ideal, 1.0 = no loss

    @property
    def label(self) -> str:
        return f"L={self.latency},R={self.budget}"


def _runs() -> list[tuple[int, Model, int | None]]:
    """``(latency, model, budget)`` of every model run, in job order.

    Ideal has no budget: it runs once per latency and is both the Ideal
    bar and the baseline of every budget's cells.
    """
    runs: list[tuple[int, Model, int | None]] = []
    for latency in LATENCIES:
        runs.append((latency, Model.IDEAL, None))
        for budget in BUDGETS:
            for model in Model:
                if model is not Model.IDEAL:
                    runs.append((latency, model, budget))
    return runs


def jobs(
    loops: Sequence[Loop],
    victim_policy: str = "longest",
    ii_escalation: str = "increment",
) -> list[EvalJob]:
    """Every loop under every model run of the grid, run-major.

    The keywords are the spill pipeline's pluggable policies
    (:mod:`repro.pipeline.policies`); the defaults reproduce the paper.
    Ideal never spills, so its jobs keep the defaults.  Figure 9 reads
    the same jobs, so in one suite map they resolve once.
    """
    out: list[EvalJob] = []
    for latency, model, budget in _runs():
        machine = paper_config(latency)
        knobs = (
            {}
            if model is Model.IDEAL
            else {
                "victim_policy": victim_policy,
                "ii_escalation": ii_escalation,
            }
        )
        out.extend(
            evaluate_job(loop, machine, model, budget, **knobs)
            for loop in loops
        )
    return out


def cell_runs(
    loops: Sequence[Loop], results: Sequence[EvalResult]
) -> Iterator[tuple[int, int, Model, ModelRun, ModelRun]]:
    """``(latency, budget, model, run, ideal run)`` of every cell.

    Cells come in figure order (latency, then budget, then model) from
    the results of :func:`jobs`; Figures 8 and 9 both render from them.
    """
    n = len(loops)
    runs = {
        (latency, model, budget): ModelRun(
            model=model,
            machine=paper_config(latency),
            register_budget=budget,
            evaluations=tuple(results[i * n:(i + 1) * n]),
        )
        for i, (latency, model, budget) in enumerate(_runs())
    }
    for latency in LATENCIES:
        ideal = runs[latency, Model.IDEAL, None]
        for budget in BUDGETS:
            for model in Model:
                run = (
                    ideal
                    if model is Model.IDEAL
                    else runs[latency, model, budget]
                )
                yield latency, budget, model, run, ideal


def build(
    loops: Sequence[Loop], results: Sequence[EvalResult]
) -> list[Figure8Cell]:
    """The (latency x budget x model) cells from the results of :func:`jobs`."""
    return [
        Figure8Cell(
            latency=latency,
            budget=budget,
            model=model,
            run=run,
            performance=relative_performance(
                run.evaluations, ideal.evaluations
            ),
        )
        for latency, budget, model, run, ideal in cell_runs(loops, results)
    ]


def run_figure8(loops: Sequence[Loop]) -> list[Figure8Cell]:
    """Compute the Figure 8 data on a serial engine."""
    return build(loops, serial_engine().map(jobs(loops)))


def performance_table(cells: Sequence[Figure8Cell]) -> Table:
    rows = []
    for cell in cells:
        rows.append(
            (
                cell.label,
                cell.model.value,
                f"{cell.performance:.3f}",
                cell.run.loops_spilled,
                cell.run.total_spills,
                bar(cell.performance, width=30),
            )
        )
    return Table.build(
        ["config", "model", "perf", "loops spilled", "values spilled", ""],
        rows,
        title="Figure 8 -- performance relative to infinite registers",
    )


def cells_by_config(
    cells: "Sequence[Figure8Cell | object]",
) -> dict[str, dict[Model, object]]:
    """``{config label: {model: cell}}`` for chart/validation lookups."""
    grid: dict[str, dict[Model, object]] = {}
    for cell in cells:
        grid.setdefault(cell.label, {})[cell.model] = cell
    return grid


def performance_chart(cells: Sequence[Figure8Cell]) -> BarChart:
    """The figure's grouped bars: one cluster of model bars per config."""
    grid = cells_by_config(cells)
    models = [m for m in Model if any(m in g for g in grid.values())]
    return BarChart(
        title="Figure 8 -- performance relative to infinite registers",
        series=tuple(m.value for m in models),
        groups=tuple(
            (
                label,
                tuple(by_model[m].performance for m in models),
            )
            for label, by_model in grid.items()
        ),
        slots=tuple(MODEL_SLOTS[m.value] for m in models),
        max_value=1.0,
    )


def format_report(cells: Sequence[Figure8Cell]) -> str:
    return performance_table(cells).to_text()


__all__ = [
    "BUDGETS",
    "Figure8Cell",
    "build",
    "cell_runs",
    "cells_by_config",
    "format_report",
    "jobs",
    "performance_chart",
    "performance_table",
    "run_figure8",
]
