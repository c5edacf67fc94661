"""Table 1: loops allocatable without spilling on the PxLy machines.

For each configuration (x adders + x multipliers of latency y, one store
port, two load ports) the paper reports the percentage of loops -- and the
percentage of execution cycles those loops represent -- that can be
allocated with 16, 32 and 64 registers under a unified register file.
Known anchors from the text: at P1L3 only 0.3 % of loops need more than 64
registers; at P2L6 10.6 % of the loops, carrying 49.1 % of the cycles, do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.distributions import fraction_fitting
from repro.analysis.reporting import BarChart, Table
from repro.engine.jobs import EvalJob, PressureResult, pressure_job
from repro.engine.pool import serial_engine
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig, pxly

THRESHOLDS = (16, 32, 64)


@dataclass(frozen=True)
class Table1Row:
    """Static and dynamic fit percentages of one machine configuration."""

    config: str
    static_percent: dict[int, float]  # threshold -> % of loops
    dynamic_percent: dict[int, float]  # threshold -> % of cycles

    def over_64_static(self) -> float:
        return 100.0 - self.static_percent[64]

    def over_64_dynamic(self) -> float:
        return 100.0 - self.dynamic_percent[64]


def default_configs() -> list[MachineConfig]:
    """The PxLy grid the paper's Table 1 spans."""
    return [pxly(1, 3), pxly(1, 6), pxly(2, 3), pxly(2, 6)]


def jobs(loops: Sequence[Loop]) -> list[EvalJob]:
    """Every loop's pressure measurement on each PxLy machine."""
    return [
        pressure_job(loop, machine)
        for machine in default_configs()
        for loop in loops
    ]


def build(
    loops: Sequence[Loop], results: Sequence[PressureResult]
) -> list[Table1Row]:
    """One row per configuration from the results of :func:`jobs`.

    The table reads only the unified requirements.
    """
    n = len(loops)
    rows = []
    for i, machine in enumerate(default_configs()):
        reports = results[i * n:(i + 1) * n]
        requirements = [report.unified for report in reports]
        weights = [
            float(report.trip_count * report.ii) for report in reports
        ]
        rows.append(
            Table1Row(
                config=machine.name,
                static_percent={
                    t: 100.0 * fraction_fitting(requirements, t)
                    for t in THRESHOLDS
                },
                dynamic_percent={
                    t: 100.0 * fraction_fitting(requirements, t, weights)
                    for t in THRESHOLDS
                },
            )
        )
    return rows


def run_table1(loops: Sequence[Loop]) -> list[Table1Row]:
    """Compute Table 1 on a serial engine."""
    return build(loops, serial_engine().map(jobs(loops)))


def table1_table(rows: Sequence[Table1Row]) -> Table:
    table_rows = []
    for row in rows:
        table_rows.append(
            (
                row.config,
                *(f"{row.static_percent[t]:.1f}" for t in THRESHOLDS),
                *(f"{row.dynamic_percent[t]:.1f}" for t in THRESHOLDS),
            )
        )
    headers = [
        "config",
        *(f"loops%<= {t}" for t in THRESHOLDS),
        *(f"cycles%<= {t}" for t in THRESHOLDS),
    ]
    return Table.build(
        headers,
        table_rows,
        title=(
            "Table 1 -- loops (and cycles) allocatable without spilling, "
            "unified register file"
        ),
    )


def over64_chart(rows: Sequence[Table1Row]) -> BarChart:
    """Loops/cycles needing more than 64 registers, per configuration."""
    return BarChart(
        title="Table 1 -- % needing more than 64 registers",
        series=("loops", "cycles"),
        groups=tuple(
            (row.config, (row.over_64_static(), row.over_64_dynamic()))
            for row in rows
        ),
        unit="%",
    )


def format_report(rows: Sequence[Table1Row]) -> str:
    return table1_table(rows).to_text()


__all__ = [
    "THRESHOLDS",
    "Table1Row",
    "build",
    "default_configs",
    "format_report",
    "jobs",
    "over64_chart",
    "run_table1",
    "table1_table",
]
