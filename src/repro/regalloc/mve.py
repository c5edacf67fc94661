"""Modulo variable expansion: allocation without rotating register files.

The paper's architecture assumes Cydra-5-style *rotating* register files so
that "successive definitions of the same virtual register actually use
distinct physical registers" (Section 4.1).  Machines without that hardware
use Lam's **modulo variable expansion** (MVE) instead: the kernel is
unrolled and each loop variant is given ``q_v = ceil(lifetime / II)``
statically renamed registers, one per concurrently live instance.

This module quantifies what the rotating file buys:

* MVE needs ``sum(q_v)`` registers -- each variant pays the ceiling
  individually -- while wands-only allocation on a rotating file packs
  lifetimes fractionally and approaches MaxLive ``~ sum(lifetime) / II``;
* MVE replicates the kernel ``max(q_v)`` times (or ``lcm`` of all ``q_v``
  for a schedule where every instance gets a fixed name), costing code size
  and instruction-cache pressure the rotating file avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.regalloc.lifetimes import Lifetime, lifetimes

if TYPE_CHECKING:  # annotations only: sched imports this module via codegen
    from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class MveAllocation:
    """Register/code costs of modulo variable expansion for one schedule."""

    schedule: Schedule
    lifetimes: dict[int, Lifetime]
    #: Registers per value: ceil(lifetime / II).
    copies: dict[int, int]

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def registers_required(self) -> int:
        """Total registers: every variant pays its own ceiling."""
        return sum(self.copies.values())

    @property
    def unroll_factor(self) -> int:
        """Minimal unroll with per-copy renaming: max over values of q_v."""
        return max(self.copies.values(), default=1)

    @property
    def unroll_factor_lcm(self) -> int:
        """Unroll for a fully static naming: lcm over values of q_v."""
        result = 1
        for q in self.copies.values():
            result = math.lcm(result, q)
        return result

    @property
    def code_expansion(self) -> int:
        """Kernel operations after unrolling by ``unroll_factor``."""
        return self.unroll_factor * len(self.schedule.graph)


def allocate_mve(schedule: Schedule) -> MveAllocation:
    """Compute the MVE costs of a schedule (no rotating file available)."""
    lts = lifetimes(schedule)
    copies = {
        op_id: max(1, math.ceil(lt.length / schedule.ii))
        for op_id, lt in lts.items()
    }
    return MveAllocation(schedule=schedule, lifetimes=lts, copies=copies)


__all__ = ["MveAllocation", "allocate_mve"]
