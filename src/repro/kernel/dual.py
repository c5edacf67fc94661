"""Value classification and dual-file allocation on cluster bitmasks.

A value's subfile membership (the GL/LO/RO classification of
:mod:`repro.core.clustering`) becomes one small integer: bit ``c`` set means
cluster ``c``'s subfile stores the value.  Classification is a single pass
over the precomputed consumer adjacency; the non-consistent dual allocation
walks values in the legacy order (most subfiles first, then start time,
then id) and probes one :class:`~repro.kernel.firstfit.BitOccupancy` per
cluster, so it lands on exactly the shifts of
:func:`repro.core.dualfile.allocate_dual`.
"""

from __future__ import annotations

from repro.kernel.firstfit import BitOccupancy, first_fit_shift
from repro.kernel.lifetimes import max_live_spans
from repro.kernel.loop import LoopArrays


def membership_masks(la: LoopArrays, asg: list[int]) -> list[int]:
    """Cluster-membership bitmask per value of ``la.values``.

    A value is stored in the subfiles of the clusters that consume it; a
    value with no consumers stays local to its producer's cluster.
    """
    masks = []
    for v in la.values:
        mask = 0
        for c, _dist in la.cons[v]:
            mask |= 1 << asg[c]
        if not mask:
            mask = 1 << asg[v]
        masks.append(mask)
    return masks


def dual_shifts(
    la: LoopArrays,
    masks: list[int],
    starts: list[int],
    ends: list[int],
    ii: int,
) -> list[int]:
    """First-fit shift per value (parallel to ``la.values``).

    Values touching more subfiles first (they are the most constrained),
    then by start time, then by id -- the deterministic wands-only
    convention of the legacy allocator.
    """
    n_clusters = la.ma.n_clusters
    occupied = [BitOccupancy() for _ in range(n_clusters)]
    order = sorted(
        range(len(masks)),
        key=lambda k: (-masks[k].bit_count(), starts[k], la.values[k]),
    )
    shifts = [0] * len(masks)
    for k in order:
        sets = [
            occupied[c] for c in range(n_clusters) if masks[k] >> c & 1
        ]
        shift = first_fit_shift(starts[k], ends[k], ii, sets)
        shifts[k] = shift
        lo = starts[k] + shift * ii
        hi = ends[k] + shift * ii
        for occ in sets:
            occ.add(lo, hi)
    return shifts


def registers_per_cluster(
    masks: list[int],
    starts: list[int],
    ends: list[int],
    shifts: list[int],
    ii: int,
    n_clusters: int,
) -> list[int]:
    """``ceil(span / II)`` of each subfile's placed values."""
    lo = [None] * n_clusters
    hi = [None] * n_clusters
    for k, mask in enumerate(masks):
        a = starts[k] + shifts[k] * ii
        b = ends[k] + shifts[k] * ii
        c = 0
        while mask:
            if mask & 1:
                if lo[c] is None or a < lo[c]:
                    lo[c] = a
                if hi[c] is None or b > hi[c]:
                    hi[c] = b
            mask >>= 1
            c += 1
    return [
        0 if lo[c] is None else -(-(hi[c] - lo[c]) // ii)
        for c in range(n_clusters)
    ]


def dual_allocation(
    la: LoopArrays,
    asg: list[int],
    starts: list[int],
    ends: list[int],
    ii: int,
) -> tuple[list[int], list[int], int]:
    """``(masks, shifts, registers)`` of the dual-file first-fit under ``asg``.

    ``registers`` is the requirement of the most loaded subfile.
    """
    masks = membership_masks(la, asg)
    shifts = dual_shifts(la, masks, starts, ends, ii)
    per_cluster = registers_per_cluster(
        masks, starts, ends, shifts, ii, la.ma.n_clusters
    )
    return masks, shifts, max(per_cluster) if per_cluster else 0


def dual_registers(
    la: LoopArrays,
    asg: list[int],
    starts: list[int],
    ends: list[int],
    ii: int,
) -> int:
    """Registers required by the most loaded subfile under ``asg``.

    The exact (first-fit) dual requirement, used per candidate by the
    swap search's FIRSTFIT ablation estimator.
    """
    return dual_allocation(la, asg, starts, ends, ii)[2]


def dual_max_live(
    la: LoopArrays,
    asg: list[int],
    starts: list[int],
    ends: list[int],
    ii: int,
) -> int:
    """Per-cluster MaxLive lower bound (the paper's swap estimator)."""
    masks = membership_masks(la, asg)
    worst = 0
    for c in range(la.ma.n_clusters):
        spans = [
            (starts[k], ends[k])
            for k, mask in enumerate(masks)
            if mask >> c & 1
        ]
        live = max_live_spans(spans, ii)
        if live > worst:
            worst = live
    return worst


__all__ = [
    "dual_allocation",
    "dual_max_live",
    "dual_registers",
    "dual_shifts",
    "membership_masks",
    "registers_per_cluster",
]
