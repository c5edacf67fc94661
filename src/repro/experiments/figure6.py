"""Figure 6: static cumulative distribution of loops vs registers required.

For each latency (3 and 6, on the 2-cluster machine of Section 5.2) and each
model (Unified, Partitioned, Swapped) the figure shows the fraction of loops
whose register requirement fits within x registers, for x from 16 to 128.
The expected shape: Partitioned shifts the curve left of Unified markedly,
Swapped adds a smaller additional shift, and both dual models gain more at
latency 6 (higher pressure) than at latency 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.distributions import (
    CumulativeDistribution,
    cumulative_distribution,
)
from repro.analysis.reporting import LineChart, Table, bar
from repro.core.pressure import PressureReport
from repro.engine.jobs import EvalJob, PressureResult, pressure_job
from repro.engine.pool import serial_engine
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig, paper_config

MODEL_NAMES = ("unified", "partitioned", "swapped")

#: FP latencies of the 2-cluster machine (Section 5.2); Figures 6-9 use both.
LATENCIES = (3, 6)

#: Either the engine's summary record or the full in-process report; both
#: expose ``trip_count``, ``ii`` and the three per-model requirements.
PressureLike = PressureResult | PressureReport


@dataclass(frozen=True)
class DistributionSet:
    """The three model curves for one machine configuration."""

    machine: str
    latency: int
    curves: dict[str, CumulativeDistribution]
    reports: tuple[PressureLike, ...]

    def curve(self, model: str) -> CumulativeDistribution:
        return self.curves[model]


def build_distributions(
    reports: Sequence[PressureLike],
    machine: MachineConfig,
    latency: int,
    weighted: bool = False,
) -> DistributionSet:
    """Assemble the per-model cumulative curves from pressure reports."""
    weights = (
        [float(r.trip_count * r.ii) for r in reports] if weighted else None
    )
    curves = {}
    for model in MODEL_NAMES:
        requirements = [getattr(r, model) for r in reports]
        curves[model] = cumulative_distribution(
            requirements, weights=weights, label=model
        )
    return DistributionSet(
        machine=machine.name,
        latency=latency,
        curves=curves,
        reports=tuple(reports),
    )


def jobs(loops: Sequence[Loop]) -> list[EvalJob]:
    """Every loop's pressure measurement at each latency, latency-major.

    Figure 7 reads the same jobs, so in one suite map they resolve once.
    """
    return [
        pressure_job(loop, paper_config(latency))
        for latency in LATENCIES
        for loop in loops
    ]


def build(
    loops: Sequence[Loop],
    results: Sequence[PressureResult],
    weighted: bool = False,
) -> list[DistributionSet]:
    """One curve set per latency from the results of :func:`jobs`.

    ``weighted=True`` weights loops by ``trip_count * II`` (Figure 7).
    """
    n = len(loops)
    return [
        build_distributions(
            results[i * n:(i + 1) * n],
            paper_config(latency),
            latency,
            weighted,
        )
        for i, latency in enumerate(LATENCIES)
    ]


def run_figure6(loops: Sequence[Loop]) -> list[DistributionSet]:
    """Compute the Figure 6 data on a serial engine."""
    return build(loops, serial_engine().map(jobs(loops)))


#: Palette slots for the models, shared by every chart in the report so a
#: model keeps its colour across figures (slot 0 is reserved for Ideal).
MODEL_SLOTS = {"ideal": 0, "unified": 1, "partitioned": 2, "swapped": 3}


def distribution_table(
    dist: DistributionSet, figure_name: str = "Figure 6"
) -> Table:
    """One latency's cumulative curves as a shared :class:`Table`."""
    rows = []
    grid = [p.registers for p in dist.curves["unified"].points]
    for registers in grid:
        rows.append(
            (
                registers,
                *(
                    f"{dist.curves[m].at(registers) * 100:.1f}"
                    for m in MODEL_NAMES
                ),
                bar(dist.curves["partitioned"].at(registers), width=24),
            )
        )
    return Table.build(
        ["registers", *MODEL_NAMES, "partitioned-curve"],
        rows,
        title=(
            f"{figure_name} -- cumulative % of "
            f"{'cycles' if figure_name == 'Figure 7' else 'loops'}, "
            f"latency {dist.latency}"
        ),
    )


def distribution_chart(
    dist: DistributionSet, figure_name: str = "Figure 6"
) -> LineChart:
    """One latency's cumulative curves as a line chart."""
    grid = tuple(
        float(p.registers) for p in dist.curves["unified"].points
    )
    unit_noun = "cycles" if figure_name == "Figure 7" else "loops"
    return LineChart(
        title=(
            f"{figure_name} -- cumulative % of {unit_noun}, "
            f"latency {dist.latency}"
        ),
        x_values=grid,
        series=tuple(MODEL_NAMES),
        values=tuple(
            tuple(dist.curves[m].at(int(x)) * 100 for x in grid)
            for m in MODEL_NAMES
        ),
        slots=tuple(MODEL_SLOTS[m] for m in MODEL_NAMES),
        max_value=100.0,
        unit="%",
        x_label="registers",
    )


def format_report(
    sets: Sequence[DistributionSet], figure_name: str = "Figure 6"
) -> str:
    return "\n\n".join(
        distribution_table(dist, figure_name).to_text() for dist in sets
    )


__all__ = [
    "MODEL_NAMES",
    "MODEL_SLOTS",
    "DistributionSet",
    "LATENCIES",
    "build",
    "build_distributions",
    "distribution_chart",
    "distribution_table",
    "format_report",
    "jobs",
    "run_figure6",
]
