"""Wands-only first-fit as a closed-form big-integer stride query.

Under the shear transform of :mod:`repro.regalloc.firstfit` an allocation is
interval packing on a line with II-granular shifts.  Here the occupied cells
of that line are one arbitrary-precision integer per register file: bit
``t`` set means sheared-time cell ``t`` is taken.  Committing a placement is
one ``|=``; the first-fit query is a handful of whole-word operations
instead of a probe per candidate shift:

1. OR the occupancies, aligned so bit ``x`` is cell ``start + x``, into one
   word ``u``;
2. smear ``u`` over the window length by doubling (``u |= u >> step``), so
   bit ``x`` is set iff some cell of ``[start + x, start + x + length)`` is
   taken -- i.e. iff the window displaced by ``x`` cells is blocked;
3. AND the complement with a stride mask holding one bit per multiple of
   II: its lowest set bit, divided by II, is the smallest feasible shift.

That is exactly the shift the interval-set allocator's blocker-end jumps
converge to (both return the *smallest* feasible shift).
"""

from __future__ import annotations

from typing import Sequence


class BitOccupancy:
    """Occupied cells of one sheared time line as a single big integer.

    Cells may be negative (a fixed placement can start anywhere): the word
    is kept biased so bit ``x - bias`` represents cell ``x``.
    """

    __slots__ = ("word", "bias")

    def __init__(self) -> None:
        self.word = 0
        self.bias = 0

    def add(self, start: int, end: int) -> None:
        """Mark the half-open cell range ``[start, end)`` occupied."""
        if start < self.bias:
            self.word <<= self.bias - start
            self.bias = start
        self.word |= ((1 << (end - start)) - 1) << (start - self.bias)


def first_fit_shift(
    start: int, end: int, ii: int, occupied: Sequence[BitOccupancy]
) -> int:
    """Smallest non-negative shift whose window avoids every occupancy.

    Multi-set queries support the non-consistent dual file, where a value
    duplicated into several subfiles takes the same register index (hence
    the same shift) in all of them.  A zero-length window covers no cell,
    so it always fits at shift 0.
    """
    u = 0
    for occ in occupied:
        offset = start - occ.bias
        u |= occ.word >> offset if offset >= 0 else occ.word << -offset
    length = end - start
    if not u or length <= 0:
        return 0
    # Invariant: bit x of u covers cells [start + x, start + x + span).
    span = 1
    while span < length:
        step = span if span + span <= length else length - span
        u |= u >> step
        span += step
    # Every shift whose window starts at or past the last blocked bit is
    # free, so ``count`` stride bits always include a feasible one.
    count = -(-u.bit_length() // ii) + 1
    stride = ((1 << (count * ii)) - 1) // ((1 << ii) - 1)
    free = stride & ~u
    return ((free & -free).bit_length() - 1) // ii


__all__ = ["BitOccupancy", "first_fit_shift"]
