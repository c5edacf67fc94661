"""Modulo scheduling: MII bounds, priorities, IMS, schedule objects."""

from repro.sched.mii import MiiReport, edge_delay, minimum_ii, rec_mii, res_mii
from repro.sched.modulo import SchedulingFailure, modulo_schedule, schedule_loop
from repro.sched.priority import heights, priority_order
from repro.sched.schedule import Placement, Schedule, ScheduleError

__all__ = [
    "MiiReport",
    "Placement",
    "Schedule",
    "ScheduleError",
    "SchedulingFailure",
    "edge_delay",
    "heights",
    "minimum_ii",
    "modulo_schedule",
    "priority_order",
    "rec_mii",
    "res_mii",
    "schedule_loop",
]
