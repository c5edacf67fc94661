"""Wands-only first-fit allocation for rotating register files.

The paper allocates registers with the *Wands Only* strategy of Rau et
al. [15] combined with *First Fit* ("the one that obtains the more optimal
results ... selected due to its simplicity", Section 2).

Geometry.  In a rotating register file, iteration k's instance of a loop
variant occupies a physical register one past iteration k-1's instance, so
the set of (register, time) cells used by all instances of one variant forms
a diagonal stripe -- Rau's "wand".  Under the shear transform

    (register r, time t)  |->  tau = t - r * II

every instance of a variant maps to the *same* interval ``[start, end)`` of
length equal to its lifetime, and choosing the variant's architectural
register amounts to shifting that interval by an integer multiple of II.
Two variants collide in the register file iff their shifted intervals
overlap.  Wands-only allocation is therefore exactly interval packing on a
line with II-granular shifts, and the registers required by a packing of
span S is ``ceil(S / II)`` (the torus circumference must cover the span).

For II = 1 the packing is gap-free and the requirement equals the sum of
lifetimes -- the "42 registers" of the paper's Section 4.1 example.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.regalloc.lifetimes import Lifetime


class AllocationError(ValueError):
    """Raised for invalid allocations."""


@dataclass(frozen=True)
class PlacedLifetime:
    """A lifetime with its chosen shift (architectural register offset).

    ``shift`` counts register offsets: the interval is displaced by
    ``shift * II`` along the sheared time axis.
    """

    lifetime: Lifetime
    shift: int
    ii: int

    @property
    def start(self) -> int:
        return self.lifetime.start + self.shift * self.ii

    @property
    def end(self) -> int:
        return self.lifetime.end + self.shift * self.ii

    @property
    def op_id(self) -> int:
        return self.lifetime.op_id


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of allocating one set of lifetimes into one register file."""

    ii: int
    placements: dict[int, PlacedLifetime]

    @property
    def registers_required(self) -> int:
        return registers_required(self.placements.values(), self.ii)

    def merged_with(self, other: "AllocationResult") -> "AllocationResult":
        """Union of two allocations in the same register file."""
        if other.ii != self.ii:
            raise AllocationError("cannot merge allocations with different II")
        overlap = set(self.placements) & set(other.placements)
        if overlap:
            raise AllocationError(f"duplicate values in merge: {overlap}")
        return AllocationResult(self.ii, {**self.placements, **other.placements})


def registers_required(
    placements: Iterable[PlacedLifetime], ii: int
) -> int:
    """Registers needed by placed (non-overlapping) lifetimes: ceil(span/II)."""
    placements = list(placements)
    if not placements:
        return 0
    span = max(p.end for p in placements) - min(p.start for p in placements)
    return math.ceil(span / ii)


def verify_disjoint(placements: Iterable[PlacedLifetime]) -> None:
    """Raise :class:`AllocationError` if any two placed intervals overlap."""
    ordered = sorted(placements, key=lambda p: p.start)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end:
            raise AllocationError(
                f"values {prev.op_id} and {cur.op_id} overlap: "
                f"[{prev.start},{prev.end}) vs [{cur.start},{cur.end})"
            )


class IntervalSet:
    """Sorted set of disjoint half-open intervals with first-fit queries."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        idx = bisect_right(self._starts, start)
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)

    def overlaps(self, start: int, end: int) -> int | None:
        """Return the end of some interval overlapping [start, end), else None."""
        idx = bisect_right(self._starts, start)
        # Predecessor may cover start.
        if idx > 0 and self._ends[idx - 1] > start:
            return self._ends[idx - 1]
        # Successor may begin before end.
        if idx < len(self._starts) and self._starts[idx] < end:
            return self._ends[idx]
        return None


def first_fit(
    lts: Iterable[Lifetime],
    ii: int,
    fixed: Sequence[PlacedLifetime] = (),
) -> AllocationResult:
    """First-fit wands-only allocation.

    Lifetimes are processed in increasing start time (ties by op id, the
    paper's deterministic convention); each receives the smallest
    non-negative shift whose interval avoids everything already placed.

    Args:
        fixed: Already-placed lifetimes that must be avoided but are not part
            of the returned allocation -- used for the globals of the
            non-consistent dual file, which occupy identical registers in
            both subfiles.
    """
    if ii < 1:
        raise AllocationError("II must be >= 1")
    occupied = IntervalSet()
    for placed in fixed:
        if placed.ii != ii:
            raise AllocationError("fixed placements use a different II")
        occupied.add(placed.start, placed.end)
    placements: dict[int, PlacedLifetime] = {}
    for lt in sorted(lts, key=lambda l: (l.start, l.op_id)):
        if lt.op_id in placements:
            raise AllocationError(f"duplicate lifetime for op {lt.op_id}")
        shift = first_fit_shift(lt, ii, (occupied,))
        placed = PlacedLifetime(lt, shift, ii)
        occupied.add(placed.start, placed.end)
        placements[lt.op_id] = placed
    return AllocationResult(ii, placements)


def first_fit_shift(
    lt: Lifetime, ii: int, occupied_sets: Sequence[IntervalSet]
) -> int:
    """Smallest non-negative shift avoiding every occupied interval set.

    Multi-set queries support the generalized non-consistent file, where a
    value duplicated into several subfiles must take the same register index
    (hence the same shift) in all of them.
    """
    shift = 0
    while True:
        start = lt.start + shift * ii
        end = lt.end + shift * ii
        blocker_end = None
        for occupied in occupied_sets:
            candidate = occupied.overlaps(start, end)
            if candidate is not None and (
                blocker_end is None or candidate > blocker_end
            ):
                blocker_end = candidate
        if blocker_end is None:
            return shift
        # Jump past the furthest blocking interval, not one step at a time.
        shift = max(shift + 1, math.ceil((blocker_end - lt.start) / ii))


__all__ = [
    "AllocationError",
    "AllocationResult",
    "IntervalSet",
    "PlacedLifetime",
    "first_fit",
    "first_fit_shift",
    "registers_required",
    "verify_disjoint",
]
