"""Array kernels: the flat, compiled form of the scheduling problem.

Every hot loop of the reproduction -- the IMS attempt loop, lifetime
analysis, MaxLive, first-fit interval allocation, the greedy swap search --
originally ran on dicts of frozen dataclasses (``Schedule.placements``, an
MRT keyed by ``(row, pool, instance)`` tuples, per-cycle ``live_at`` sums).
This package lowers the problem once into flat integer arrays and bitmasks:

* :class:`~repro.kernel.machine.MachineArrays` -- pools as indices, unit
  occupancy as per-row bitmask words, cluster-of-instance tables;
* :class:`~repro.kernel.loop.LoopArrays` -- the DDG as parallel arrays
  (pool/latency per op, edge arrays, consumer adjacency built in one pass);
* :mod:`~repro.kernel.modulo` -- the IMS attempt loop with an O(1)
  free-instance lookup (lowest zero bit of the row's occupancy word);
* :mod:`~repro.kernel.lifetimes` -- lifetimes from the consumer adjacency
  and kernel-cycle live profiles via difference arrays;
* :mod:`~repro.kernel.firstfit` -- wands-only first-fit as a closed-form
  big-integer stride query over the sheared time line;
* :mod:`~repro.kernel.dual` -- value classification and the non-consistent
  dual-file allocation on cluster bitmasks;
* :mod:`~repro.kernel.swap` -- the greedy swap search with incremental
  per-cluster live-profile deltas instead of a full re-classification per
  candidate.

The kernels serve one evaluator, :class:`~repro.kernel.batch.LoopChain`:
the engine groups grid jobs by loop content and walks each group along one
shared chain of spill states (schedule-stage artifacts computed once per
state, not once per point); single-point entry points such as
:func:`repro.spill.spiller.evaluate_loop` and the static proof walk a
one-loop chain.  A chain node lifts its arrays to the same frozen
dataclasses (``Schedule``, ``UnifiedAllocation``, ``DualAllocation``,
``SwapResult``) the public modules build.

The public modules (:mod:`repro.sched.modulo`, :mod:`repro.regalloc`,
:mod:`repro.core`, and the pass pipeline over them) are the dict
reference: the readable, paper-faithful specification the chain is tested
against, and the fallback for custom victim policies that have no array
implementation.  Nothing selects between the two at run time.
"""

from __future__ import annotations

from repro.kernel.loop import LoopArrays, consumer_map, lower_loop
from repro.kernel.machine import MachineArrays, lower_machine

__all__ = [
    "LoopArrays",
    "MachineArrays",
    "consumer_map",
    "lower_loop",
    "lower_machine",
]
