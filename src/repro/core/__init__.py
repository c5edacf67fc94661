"""The paper's contribution: non-consistent dual register file management."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_attributes

from repro.core.clustering import (
    ClusterAssignment,
    ValueClasses,
    classify_values,
    consumer_clusters,
    scheduler_assignment,
)
from repro.core.dualfile import DualAllocation, allocate_dual, dual_max_live
from repro.core.models import Model, Requirement, required_registers
from repro.core.swapping import SwapEstimator, SwapResult, greedy_swap

if TYPE_CHECKING:
    from repro.core.pressure import PressureReport, pressure_report

#: Names of the pressure report, imported on first access (PEP 562):
#: the evaluator never loads it.
_LAZY: dict[str, str] = {
    "PressureReport": "repro.core.pressure",
    "pressure_report": "repro.core.pressure",
}

__all__ = [
    "ClusterAssignment",
    "DualAllocation",
    "Model",
    "PressureReport",
    "Requirement",
    "SwapEstimator",
    "SwapResult",
    "ValueClasses",
    "allocate_dual",
    "classify_values",
    "consumer_clusters",
    "dual_max_live",
    "greedy_swap",
    "pressure_report",
    "required_registers",
    "scheduler_assignment",
]


__getattr__, __dir__ = lazy_attributes(__name__, _LAZY)
