"""Lifetimes, MaxLive bound, and wands-only first-fit register allocation."""

from repro.regalloc.allocation import UnifiedAllocation, allocate_unified
from repro.regalloc.firstfit import (
    AllocationError,
    AllocationResult,
    PlacedLifetime,
    first_fit,
    registers_required,
    verify_disjoint,
)
from repro.regalloc.lifetimes import Lifetime, lifetimes, total_lifetime
from repro.regalloc.maxlive import average_live, live_at, live_profile, max_live

__all__ = [
    "AllocationError",
    "AllocationResult",
    "Lifetime",
    "PlacedLifetime",
    "UnifiedAllocation",
    "allocate_unified",
    "average_live",
    "first_fit",
    "lifetimes",
    "live_at",
    "live_profile",
    "max_live",
    "registers_required",
    "total_lifetime",
    "verify_disjoint",
]
