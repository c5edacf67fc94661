"""The IMS attempt loop on flat arrays and a bitmask reservation table.

Bit-for-bit the algorithm of :func:`repro.sched.modulo._attempt` -- same
priority function, same tie breaks, same displacement rule, same operation
budget -- with the dict-of-tuples MRT replaced by one occupancy word per
(kernel row, pool).  The free-instance probe becomes "lowest zero bit of
the word" and unschedule/place become single bit operations.  A second
word per pool marks the rows that still have a free unit, so the window
search finds its first open row with two bit operations instead of
scanning up to II rows of a saturated pool.

Operation indices ascend with op ids (see :mod:`repro.kernel.loop`), so
every id-based tie break below is expressed on indices unchanged.
"""

from __future__ import annotations

from repro.kernel.loop import LoopArrays


def _sinks_first(la: LoopArrays) -> list[int]:
    """Op indices in a reverse topological order of the distance-0 subgraph.

    That subgraph is acyclic (validation rejects zero-distance cycles); any
    op left on a cycle anyway is appended in index order, which costs
    :func:`heights` passes but never changes its result.
    """
    n = la.n
    pending = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for src, dst, _delay, dist in la.edges():
        if dist == 0:
            pending[src] += 1
            preds[dst].append(src)
    order = [i for i in range(n) if not pending[i]]
    for v in order:  # grows while iterating: a Kahn queue
        for p in preds[v]:
            pending[p] -= 1
            if not pending[p]:
                order.append(p)
    if len(order) < n:
        placed = set(order)
        order.extend(i for i in range(n) if i not in placed)
    return order


def heights(la: LoopArrays, ii: int) -> list[int]:
    """Height-based IMS priority per op index at a candidate II.

    Same fixpoint as :func:`repro.sched.priority.heights`:
    ``H(v) = max(0, max over v->w of H(w) + delay - II * distance)``.
    Relaxation order never changes a Bellman-Ford fixpoint, only how many
    passes reach it.  Out-edges are relaxed sinks-first
    (``la.relax_order``), so one pass settles every acyclic chain and only
    loop-carried edges cost further passes.
    """
    h = [0] * la.n
    order = la.relax_order
    if order is None:
        order = la.relax_order = _sinks_first(la)
    out_edges = la.out_edges
    weights = [
        (src, dst, delay - ii * dist)
        for src in order
        for dst, delay, dist in out_edges[src]
    ]
    for _ in range(la.n + 1):
        changed = False
        for src, dst, weight in weights:
            candidate = h[dst] + weight
            if candidate > h[src]:
                h[src] = candidate
                changed = True
        if not changed:
            break
    else:
        raise ValueError(
            f"heights diverge: II={ii} below the recurrence bound"
        )
    return h


def attempt(
    la: LoopArrays, ii: int, budget_factor: int
) -> tuple[list[int], list[int]] | None:
    """One IMS attempt at a fixed II, which must be at least ResMII.

    Returns ``(times, instances)`` indexed by op index, or ``None`` when the
    operation budget runs out before everything is placed.

    Every op holds one unit of its pool for one cycle, and the window
    search below covers all ``ii`` kernel rows.  At ``ii >= ResMII`` a
    pool has at most ``units * ii`` ops, so while one of them is
    unscheduled its pool has a free unit in some row and the search finds
    it: an op is never forced onto an occupied unit.

    Raises:
        ValueError: If the window has no free unit, i.e. ``ii`` is below
            ResMII.
    """
    n = la.n
    if n == 0:
        return [], []
    h = heights(la, ii)
    ma = la.ma
    n_pools = ma.n_pools
    pool = la.pool
    in_edges = la.in_edges
    out_edges = la.out_edges

    time = [-1] * n
    inst = [-1] * n
    unscheduled = [True] * n
    n_unscheduled = n
    budget = budget_factor * n

    # Heights are fixed for the whole attempt, so "highest height, ties to
    # the lowest index" is simply the first unscheduled entry of one static
    # order: keep a cursor into it and rewind on displacement instead of
    # rescanning all n ops per placement.
    order = sorted(range(n), key=lambda i: -h[i])  # stable: ties by index
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    cursor = 0

    # MRT: one occupancy word per (row, pool) cell, and per pool a mask of
    # the rows with a free unit.
    occ_mask = [0] * (ii * n_pools)
    open_rows = [(1 << ii) - 1] * n_pools

    while n_unscheduled:
        if budget <= 0:
            return None
        budget -= 1

        # Highest height, ties to the lowest index (== lowest op id).
        while not unscheduled[order[cursor]]:
            cursor += 1
        op = order[cursor]
        p = pool[op]
        full = ma.full_masks[p]

        estart = 0
        for src, delay, dist in in_edges[op]:
            t = time[src]
            if t >= 0:
                bound = t + delay - ii * dist
                if bound > estart:
                    estart = bound

        # The II-wide window from estart visits rows r0..II-1, then 0..r0-1:
        # its first open row is the lowest open row at or after r0, else
        # the lowest open row overall.
        rows = open_rows[p]
        if not rows:
            raise ValueError(
                f"no free {ma.names[p]} unit in any row at II={ii}: "
                f"II is below ResMII"
            )
        r0 = estart % ii
        ahead = rows >> r0
        if ahead:
            skip = (ahead & -ahead).bit_length() - 1
        else:
            skip = ii - r0 + (rows & -rows).bit_length() - 1
        chosen_time = estart + skip
        row = chosen_time % ii
        cell = row * n_pools + p
        occ = occ_mask[cell]
        free = ~occ & full
        chosen_inst = (free & -free).bit_length() - 1
        occ |= 1 << chosen_inst
        occ_mask[cell] = occ
        if occ == full:
            open_rows[p] = rows & ~(1 << row)
        time[op] = chosen_time
        inst[op] = chosen_inst
        unscheduled[op] = False
        n_unscheduled -= 1

        # Displace scheduled successors whose dependences are now violated.
        for dst, delay, dist in out_edges[op]:
            t = time[dst]
            if dst == op or t < 0:
                continue
            if t < chosen_time + delay - ii * dist:
                row = t % ii
                q = pool[dst]
                occ_mask[row * n_pools + q] &= ~(1 << inst[dst])
                open_rows[q] |= 1 << row
                time[dst] = -1
                inst[dst] = -1
                unscheduled[dst] = True
                n_unscheduled += 1
                if rank[dst] < cursor:
                    cursor = rank[dst]

    return time, inst


__all__ = ["attempt", "heights"]
