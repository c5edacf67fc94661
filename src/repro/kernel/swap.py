"""Greedy swap search with incremental estimator deltas.

The legacy search re-derives the whole GL/LO/RO classification and re-sums
every value's per-cycle live counts for *each* candidate exchange -- an
O(values x (operands + II)) rebuild per candidate that dominates the entire
reproduction (the profiler attributes ~90% of a cold Figure 8/9 grid to
it).  Here the MAXLIVE estimator is maintained incrementally:

* per value: its consumer-use count in each cluster and its current
  subfile-membership bitmask;
* per cluster: the live profile over the II kernel cycles.

Reassigning one operation touches only the values it consumes (plus its own
value when nothing consumes it); each membership flip adds/removes one
value's span contribution from one cluster profile.  A candidate is
evaluated by applying the two reassignments, reading ``max`` of the (two)
profiles, and applying the inverse -- O(touched values x II) instead of a
full rebuild.

Candidates are ranked exactly like the legacy ``consider`` hook: strictly
improving values only, minimized by ``(estimate, action tuple)`` where
action tuples are ``("move", op_id, instance) < ("swap", a_id, b_id)`` --
order-independent, so incremental enumeration cannot change the outcome.

Under MAXLIVE most candidates are not even estimated.  An action lowers the
worst subfile's MaxLive only if, in every cluster whose profile peaks at the
current estimate, each peak cycle loses a live value -- and the only values
a departing op can remove from its cluster's subfile are the ones it alone
consumes there (plus its own value when nothing consumes it).  Arrivals only
add.  Each step first marks the ops whose removable values cover their
cluster's peak cycles; a swap or move whose ops cannot reach every peak
cluster that way is skipped, since ``consider`` would reject its estimate
anyway, so traces are unchanged.  The dict reference search
(:func:`repro.core.swapping.greedy_swap`) stays unpruned and is the
oracle for this rule.

The FIRSTFIT ablation estimator re-allocates per candidate (it is exact by
definition), unpruned, on the bitmask allocator of :mod:`repro.kernel.dual`.
"""

from __future__ import annotations

from repro.kernel.dual import dual_registers, membership_masks
from repro.kernel.loop import LoopArrays


class _MaxLiveState:
    """Per-cluster live profiles under an evolving cluster assignment."""

    def __init__(
        self,
        la: LoopArrays,
        asg: list[int],
        starts: list[int],
        ends: list[int],
        ii: int,
    ) -> None:
        self.la = la
        self.asg = asg
        self.starts = starts
        self.ends = ends
        self.ii = ii
        self.n_clusters = la.ma.n_clusters

        self.slot_of = [-1] * la.n
        for k, v in enumerate(la.values):
            self.slot_of[v] = k
        self.total_cons = [len(la.cons[v]) for v in la.values]
        #: op index -> [(value slot, uses)] for the values it consumes.
        self.consumed: list[list[tuple[int, int]]] = [[] for _ in range(la.n)]
        for k, v in enumerate(la.values):
            uses: dict[int, int] = {}
            for c, _dist in la.cons[v]:
                uses[c] = uses.get(c, 0) + 1
            for c, count in uses.items():
                self.consumed[c].append((k, count))

        self.cnt = [[0] * self.n_clusters for _ in la.values]
        for k, v in enumerate(la.values):
            row = self.cnt[k]
            for c, _dist in la.cons[v]:
                row[asg[c]] += 1
        self.mem = membership_masks(la, asg)
        #: Per value slot: the kernel cycles its lifetime is live in.
        full = (1 << ii) - 1
        self.live_mask: list[int] = []
        for start, end in zip(starts, ends):
            length = end - start
            if length >= ii:
                self.live_mask.append(full)
            else:
                mask = ((1 << length) - 1) << (start % ii)
                self.live_mask.append((mask | mask >> ii) & full)
        self.prof = [[0] * ii for _ in range(self.n_clusters)]
        for k, mask in enumerate(self.mem):
            for c in range(self.n_clusters):
                if mask >> c & 1:
                    self._span(k, c, 1)

    def _span(self, slot: int, cluster: int, sign: int) -> None:
        """Add/remove value ``slot``'s live contribution to one profile."""
        profile = self.prof[cluster]
        ii = self.ii
        start = self.starts[slot]
        whole, rem = divmod(self.ends[slot] - start, ii)
        if whole:
            delta = whole * sign
            for x in range(ii):
                profile[x] += delta
        if rem:
            lo = start % ii
            hi = lo + rem
            if hi <= ii:
                for x in range(lo, hi):
                    profile[x] += sign
            else:
                for x in range(lo, ii):
                    profile[x] += sign
                for x in range(hi - ii):
                    profile[x] += sign

    def set_cluster(self, op: int, new_cluster: int) -> None:
        """Move ``op`` to ``new_cluster``, updating profiles incrementally."""
        old_cluster = self.asg[op]
        if old_cluster == new_cluster:
            return
        self.asg[op] = new_cluster
        slot = self.slot_of[op]
        if slot >= 0 and self.total_cons[slot] == 0:
            # A value nothing consumes follows its producer's subfile.
            self._span(slot, old_cluster, -1)
            self._span(slot, new_cluster, 1)
            self.mem[slot] = 1 << new_cluster
        for slot2, uses in self.consumed[op]:
            row = self.cnt[slot2]
            row[old_cluster] -= uses
            row[new_cluster] += uses
            mask = self.mem[slot2]
            new_mask = mask
            if row[old_cluster] == 0:
                new_mask &= ~(1 << old_cluster)
            if row[new_cluster] == uses:  # became non-zero just now
                new_mask |= 1 << new_cluster
            if new_mask != mask:
                removed = mask & ~new_mask
                added = new_mask & ~mask
                for c in range(self.n_clusters):
                    bit = 1 << c
                    if removed & bit:
                        self._span(slot2, c, -1)
                    if added & bit:
                        self._span(slot2, c, 1)
                self.mem[slot2] = new_mask

    def improvers(self, current: int) -> tuple[int, list[bool]]:
        """Which ops can help an action beat ``current``.

        Returns ``(n_peak, useful)``: ``n_peak`` clusters have a profile
        peak of ``current``, and ``useful[op]`` says ``op``'s cluster is one
        of them and the values ``op`` alone keeps in that subfile are live
        in every one of its peak cycles.  An action can only be strictly
        improving if it moves one useful op out of each peak cluster.
        """
        peak_cycles = [0] * self.n_clusters
        n_peak = 0
        for c, profile in enumerate(self.prof):
            if max(profile) == current:
                n_peak += 1
                mask = 0
                for x, live in enumerate(profile):
                    if live == current:
                        mask |= 1 << x
                peak_cycles[c] = mask
        n = self.la.n
        useful = [False] * n
        if n_peak > 2:
            return n_peak, useful  # no action leaves more than 2 clusters
        asg = self.asg
        cnt = self.cnt
        live_mask = self.live_mask
        for op in range(n):
            c = asg[op]
            need = peak_cycles[c]
            if not need:
                continue
            slot = self.slot_of[op]
            cover = (
                live_mask[slot]
                if slot >= 0 and self.total_cons[slot] == 0
                else 0
            )
            for slot2, uses in self.consumed[op]:
                if cnt[slot2][c] == uses:
                    cover |= live_mask[slot2]
            useful[op] = not (need & ~cover)
        return n_peak, useful

    def estimate(self) -> int:
        """Worst per-cluster MaxLive (0 when a profile is empty)."""
        worst = 0
        for profile in self.prof:
            peak = max(profile) if profile else 0
            if peak > worst:
                worst = peak
        return worst


def greedy_swap_search(
    la: LoopArrays,
    ii: int,
    rows: list[int],
    insts: list[int],
    asg: list[int],
    starts: list[int],
    ends: list[int],
    use_firstfit: bool,
    max_steps: int,
    allow_moves: bool,
) -> tuple[
    list[tuple[int, int]], list[tuple[int, int]], int, int
]:
    """Run the greedy search, mutating ``insts`` and ``asg`` in place.

    Returns ``(swaps, moves, estimate_before, estimate_after)`` with op
    *ids* in the recorded actions, matching the legacy trace exactly.
    """
    ma = la.ma
    ids = la.ids
    pool = la.pool
    state = None
    if use_firstfit:

        def set_cluster(op: int, cluster: int) -> None:
            asg[op] = cluster

        def estimate() -> int:
            return dual_registers(la, asg, starts, ends, ii)

    else:
        state = _MaxLiveState(la, asg, starts, ends, ii)
        set_cluster = state.set_cluster
        estimate = state.estimate

    before = estimate()
    current = before
    swaps: list[tuple[int, int]] = []
    moves: list[tuple[int, int]] = []

    # Rows and pools never change during the search: only instances and
    # clusters are exchanged.
    by_slot: dict[tuple[int, int], list[int]] = {}
    for i in range(la.n):
        by_slot.setdefault((rows[i], pool[i]), []).append(i)
    slots = list(by_slot.values())

    for _ in range(max_steps):
        n_peak = 0
        useful: list[bool] | None = None
        if state is not None:
            n_peak, useful = state.improvers(current)

        best_action: tuple | None = None
        best_pair: tuple[int, int] | None = None
        best_value = current

        def consider(action: tuple, a: int, b: int, value: int) -> None:
            nonlocal best_action, best_pair, best_value
            if value >= current:
                return  # only strictly improving actions are applied
            if (
                best_action is None
                or value < best_value
                or (value == best_value and action < best_action)
            ):
                best_action = action
                best_pair = (a, b)
                best_value = value

        for ops in slots:
            for i, a in enumerate(ops):
                ca = asg[a]
                for b in ops[i + 1 :]:
                    cb = asg[b]
                    if ca == cb:
                        continue
                    # Each peak cluster must lose a useful op.
                    if useful is not None and useful[a] + useful[b] != n_peak:
                        continue
                    set_cluster(a, cb)
                    set_cluster(b, ca)
                    value = estimate()
                    set_cluster(a, ca)
                    set_cluster(b, cb)
                    consider(("swap", ids[a], ids[b]), a, b, value)

        if allow_moves:
            occupied: dict[tuple[int, int], set[int]] = {}
            for i in range(la.n):
                occupied.setdefault((rows[i], pool[i]), set()).add(insts[i])
            for i in range(la.n):
                # A move leaves one cluster, so it must be the only peak.
                if useful is not None and not (n_peak == 1 and useful[i]):
                    continue
                p = pool[i]
                taken = occupied[(rows[i], p)]
                current_cluster = ma.cluster_of[p][insts[i]]
                old = asg[i]
                for instance in range(ma.counts[p]):
                    if instance in taken:
                        continue
                    cluster = ma.cluster_of[p][instance]
                    if cluster == current_cluster:
                        continue
                    set_cluster(i, cluster)
                    value = estimate()
                    set_cluster(i, old)
                    consider(("move", ids[i], instance), i, instance, value)

        if best_action is None:
            break
        if best_action[0] == "swap":
            a, b = best_pair
            ca, cb = asg[a], asg[b]
            set_cluster(a, cb)
            set_cluster(b, ca)
            insts[a], insts[b] = insts[b], insts[a]
            swaps.append((ids[a], ids[b]))
        else:
            op, instance = best_pair
            set_cluster(op, ma.cluster_of[pool[op]][instance])
            insts[op] = instance
            moves.append((ids[op], instance))
        current = best_value

    return swaps, moves, before, current


__all__ = ["greedy_swap_search"]
