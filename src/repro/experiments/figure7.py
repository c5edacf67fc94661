"""Figure 7: dynamic cumulative distribution (cycle-weighted Figure 6).

Loops are weighted by estimated execution time, ``trip_count * II``
(Section 5.3).  The paper's observations to reproduce: loops with high
register requirements carry a disproportionate share of execution time, the
Partitioned model improves much more dynamically than statically, and the
Partitioned-to-Swapped difference stays small.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.jobs import PressureResult
from repro.engine.pool import serial_engine
from repro.experiments.figure6 import (
    DistributionSet,
    build as _build6,
    format_report as _format6,
    jobs,
)
from repro.ir.loop import Loop


def build(
    loops: Sequence[Loop], results: Sequence[PressureResult]
) -> list[DistributionSet]:
    """Figure 6's curves from Figure 6's jobs, weighted by execution time."""
    return _build6(loops, results, weighted=True)


def run_figure7(loops: Sequence[Loop]) -> list[DistributionSet]:
    """Compute the Figure 7 data on a serial engine."""
    return build(loops, serial_engine().map(jobs(loops)))


def format_report(sets: Sequence[DistributionSet]) -> str:
    return _format6(sets, figure_name="Figure 7")


__all__ = ["build", "format_report", "jobs", "run_figure7"]
