"""Aggregation and presentation: how per-loop numbers become figures.

Implements the paper's three aggregate views: cumulative distributions of
register requirements (Figures 6/7, :mod:`~repro.analysis.distributions`),
workload performance relative to the Ideal machine (Figure 8,
:mod:`~repro.analysis.performance`), and the table/chart primitives every
driver and the reproduction report render through
(:mod:`~repro.analysis.reporting`).

Key entry points: :func:`cumulative_distribution` and
:func:`fraction_fitting` (static/dynamic curves), :class:`ModelRun` /
:func:`relative_performance` (Figure 8 aggregation), and the
:class:`Table` / :class:`BarChart` / :class:`LineChart` primitives with
text, Markdown, HTML, ASCII-art, and SVG renderings.
"""

from repro.analysis.distributions import (
    DEFAULT_GRID,
    CumulativeDistribution,
    CumulativePoint,
    cumulative_distribution,
    fraction_fitting,
)
from repro.analysis.performance import (
    ModelRun,
    relative_performance,
    total_cycles,
)
from repro.analysis.reporting import (
    BarChart,
    LineChart,
    Table,
    bar,
    format_table,
    percent,
)

__all__ = [
    "DEFAULT_GRID",
    "BarChart",
    "CumulativeDistribution",
    "CumulativePoint",
    "LineChart",
    "ModelRun",
    "Table",
    "bar",
    "cumulative_distribution",
    "format_table",
    "fraction_fitting",
    "percent",
    "relative_performance",
    "total_cycles",
]
