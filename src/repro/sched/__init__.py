"""Modulo scheduling: MII bounds, priorities, IMS, schedule objects."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_attributes

from repro.sched.mii import MiiReport, edge_delay, minimum_ii, rec_mii, res_mii
from repro.sched.modulo import SchedulingFailure, modulo_schedule, schedule_loop
from repro.sched.priority import heights, priority_order
from repro.sched.schedule import Placement, Schedule, ScheduleError

if TYPE_CHECKING:
    from repro.sched.codegen import (
        CodeListing,
        VliwInstruction,
        code_size_comparison,
        emit_replicated,
        emit_rotating,
    )
    from repro.sched.compact import CompactionResult, compact_schedule

#: Names of the code-generation and compaction extensions, imported on
#: first access (PEP 562): scheduling a loop never loads them.
_LAZY: dict[str, str] = {
    "CodeListing": "repro.sched.codegen",
    "VliwInstruction": "repro.sched.codegen",
    "code_size_comparison": "repro.sched.codegen",
    "emit_replicated": "repro.sched.codegen",
    "emit_rotating": "repro.sched.codegen",
    "CompactionResult": "repro.sched.compact",
    "compact_schedule": "repro.sched.compact",
}

__all__ = [
    "CodeListing",
    "CompactionResult",
    "MiiReport",
    "Placement",
    "Schedule",
    "ScheduleError",
    "SchedulingFailure",
    "VliwInstruction",
    "code_size_comparison",
    "compact_schedule",
    "emit_replicated",
    "emit_rotating",
    "edge_delay",
    "heights",
    "minimum_ii",
    "modulo_schedule",
    "priority_order",
    "rec_mii",
    "res_mii",
    "schedule_loop",
]


__getattr__, __dir__ = lazy_attributes(__name__, _LAZY)
