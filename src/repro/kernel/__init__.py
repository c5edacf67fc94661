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
* :mod:`~repro.kernel.firstfit` -- wands-only first-fit as big-integer
  bitmask probes over the sheared time line;
* :mod:`~repro.kernel.dual` -- value classification and the non-consistent
  dual-file allocation on cluster bitmasks;
* :mod:`~repro.kernel.swap` -- the greedy swap search with incremental
  per-cluster live-profile deltas instead of a full re-classification per
  candidate.

The kernels are drop-in replacements: the public modules
(:mod:`repro.sched.modulo`, :mod:`repro.regalloc`, :mod:`repro.core`)
dispatch here and materialize the same frozen dataclasses at the boundary,
so schedules, allocations, swap traces, report bytes and pipeline
fingerprints are identical either way.

There are two evaluators:

* **production** -- the array kernels.  The engine groups grid jobs by
  loop content and evaluates each group against one shared
  :class:`~repro.kernel.batch.LoopChain` (schedule-stage artifacts
  computed once per loop, not once per point); single-point entry points
  such as :func:`repro.pipeline.run_evaluation` run the per-point kernels;
* **oracle** -- the dict reference implementations, the specification the
  kernels are tested against.  :func:`use_kernels` ``(False)`` selects it
  for differential tests and benches; nothing in production does.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_enabled = True


def kernels_enabled() -> bool:
    """Whether the public entry points dispatch to the array kernels."""
    return _enabled


@contextmanager
def use_kernels(enabled: bool) -> Iterator[None]:
    """Scoped evaluator override: ``False`` selects the dict oracle."""
    global _enabled
    prior = _enabled
    _enabled = bool(enabled)
    try:
        yield
    finally:
        _enabled = prior


from repro.kernel.loop import LoopArrays, consumer_map, lower_loop  # noqa: E402
from repro.kernel.machine import MachineArrays, lower_machine  # noqa: E402

__all__ = [
    "LoopArrays",
    "MachineArrays",
    "consumer_map",
    "kernels_enabled",
    "lower_loop",
    "lower_machine",
    "use_kernels",
]
