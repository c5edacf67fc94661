"""Grid-batched evaluation: one spill chain per loop serves a whole sweep.

The paper's experiments are grids -- every figure sweeps loops x register
budgets x file models -- yet the per-point pipeline re-derives the shared
schedule-stage work for each point.  The key structural fact this module
exploits: for a fixed (dependence graph, machine, victim policy, pressure
strategy, II escalation), the *state sequence* of the Section 5.4 loop is
identical for every (model, budget) point.  Each round either spills the
policy's victim (a model-independent choice) or reschedules at the escalated
II; the model and budget only decide *where* a walk exits the sequence.

So a whole grid evaluates against one lazily-grown chain of :class:`_Node`
states.  Each node computes its schedule-stage artifacts exactly once, as
flat arrays shared by every walk that passes through it:

* the MII and the IMS schedule search (:mod:`repro.kernel.modulo`), without
  materializing ``Schedule``/``Placement`` dataclasses; a spill child's MII
  search starts from its parent's RecMII (:func:`array_mii`);
* lifetime bounds and the difference-array live profile
  (:mod:`repro.kernel.lifetimes`), reused in bulk as the MaxLive lower
  bounds of all three finite models;
* per-model exact requirements over shared first-fit bitmask state
  (:mod:`repro.kernel.firstfit` / :mod:`repro.kernel.dual`), memoized per
  (model[, estimator]) so adjacent sweep points that differ only in budget
  or model re-evaluate incrementally instead of from scratch.

Walks are further gated by lower bounds: while ``MaxLive > budget`` the
exact first-fit allocation cannot fit either, so the expensive allocation is
skipped entirely on the interior of a spill walk and only computed where a
halt decision actually needs it (MaxLive is a lower bound on any legal
rotating allocation; the per-cluster/global peaks bound the dual models).

Every number produced here is pinned bit-identical to the dict reference
(the pass pipeline over :mod:`repro.sched`, :mod:`repro.regalloc` and
:mod:`repro.core`) by the differential suite
(``tests/properties/test_kernel_differential.py``,
``tests/properties/test_chain_materialize.py``, ``tests/engine/test_batch.py``);
the chain is the same state machine, traversed once instead of per point.

Grid walks return summary numbers only.  The static proof needs the real
artifacts, so :meth:`LoopChain.materialize` additionally lifts the node a
walk exits on to a full :class:`~repro.spill.spiller.LoopEvaluation`: the
node's graph is replayed lazily with :func:`~repro.spill.spiller.spill_value`
on the victims along the chain, its array schedule becomes a verified
:class:`~repro.sched.schedule.Schedule`, and the allocation is the one the
node computed its requirement from -- first-fit shifts, subfile
memberships and, for Swapped, the swap search's trace -- lifted to the
public dataclasses (:meth:`_Node.lift`), never recomputed.  Grid, serve and
``repro run`` never pay for the lift.

This module deliberately knows nothing about engine jobs: grouping (by the
same content fingerprints that key the pipeline ``ArtifactStore``) and the
result dataclasses live in :mod:`repro.engine.jobs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.core.clustering import ValueClasses
from repro.core.dualfile import DualAllocation
from repro.core.models import Model, Requirement
from repro.core.swapping import SwapEstimator, SwapResult
from repro.ir.ddg import DependenceGraph
from repro.ir.loop import Loop
from repro.ir.operation import OpType
from repro.kernel import dual as kdual
from repro.kernel import modulo as kmodulo
from repro.kernel.firstfit import BitOccupancy, first_fit_shift
from repro.kernel.lifetimes import lifetime_bounds, live_profile_spans
from repro.kernel.loop import LoopArrays, lower_loop
from repro.kernel.swap import greedy_swap_search
from repro.machine.config import MachineConfig
from repro.pipeline.policies import get_escalation, get_policy
from repro.regalloc.allocation import UnifiedAllocation
from repro.regalloc.firstfit import AllocationResult, PlacedLifetime
from repro.regalloc.lifetimes import Lifetime
from repro.sched.modulo import SchedulingFailure
from repro.sched.schedule import Placement, Schedule
from repro.spill.spiller import LoopEvaluation, spill_value

#: Victim policies with an array-native implementation below.  Custom
#: registered policies are arbitrary Python objects interrogating Schedule
#: dataclasses, so groups naming one fall back to per-job execution.
ARRAY_POLICIES = frozenset(
    ("longest", "most_registers", "first", "most_consumers", "least_traffic")
)


def supports(victim_policy: str, pressure_strategy: str) -> bool:
    """Whether points with these knobs are evaluated on a :class:`LoopChain`.

    The one routing rule of every caller that can either walk a chain or
    run the pass pipeline (the engine's job groups, ``evaluate_loop``,
    ``pressure_report``, the static proof).  Escalations are not
    restricted: the strategy object is called directly, so custom
    registered escalations batch fine.  ``increase_ii`` never selects a
    victim, so any policy name batches under it.
    """
    if pressure_strategy == "increase_ii":
        return True
    return pressure_strategy == "spill" and victim_policy in ARRAY_POLICIES


# ----------------------------------------------------------------------
# Array MII (same bounds as repro.sched.mii, on the lowered arrays)
# ----------------------------------------------------------------------
def _positive_cycle(n: int, edges: list, ii: int) -> bool:
    """Bellman-Ford positive-cycle test on weights ``delay - II * distance``."""
    dist = [0] * n
    for _ in range(n):
        changed = False
        for src, dst, delay, distance in edges:
            weight = delay - ii * distance
            if dist[src] + weight > dist[dst]:
                dist[dst] = dist[src] + weight
                changed = True
        if not changed:
            return False
    return True


def array_mii(la: LoopArrays, rec_floor: int = 1) -> tuple[int, int]:
    """``(MII, RecMII floor)`` of lowered arrays; the MII equals ``minimum_ii``.

    ``rec_floor`` must be a lower bound on the arrays' RecMII: ``1`` for a
    chain root, the parent's returned floor for a spill child.  That is
    sound because neither bound ever falls along a spill chain.  A spill
    only appends ops (ResMII cannot drop) and replaces each use ``v -> c``
    of the victim, at distance ``d``, by the path ``v -> store -> load -> c``
    of delay ``lat_v + 1 + lat_load >= lat_v`` and the same total distance
    ``d``; every other edge is kept.  So each parent cycle maps to a child
    cycle of no less delay and equal distance, and an II with a positive
    cycle in the parent has one in the child.

    Feasibility is tested first at ``max(ResMII, rec_floor)``.  Without a
    positive cycle there, the MII is that II: it is either ResMII, or the
    floor, which RecMII then cannot exceed.  Otherwise the search gallops
    upward from it and bisects the last gap, returning the exact RecMII as
    the new floor.
    """
    counts = la.ma.counts
    uses = [0] * la.ma.n_pools
    for p in la.pool:
        uses[p] += 1
    res = 1
    for p, n_uses in enumerate(uses):
        if n_uses:
            bound = -(-n_uses // counts[p])
            if bound > res:
                res = bound

    if not la.carried:
        return res, 1  # acyclic: RecMII = 1 <= ResMII
    edges = la.edges()
    ii = res if res > rec_floor else rec_floor
    if not _positive_cycle(la.n, edges, ii):
        return ii, rec_floor
    # RecMII > ii: gallop to a feasible II, then bisect (lo, hi].
    lo = ii + 1
    step = 1
    hi = ii + step
    while _positive_cycle(la.n, edges, hi):
        lo = hi + 1
        step *= 2
        hi = ii + step
    while lo < hi:
        mid = (lo + hi) // 2
        if _positive_cycle(la.n, edges, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo, lo


_UNSET = object()


#: The swap search's ``(assignment, instances, swaps, moves,
#: estimate_before, estimate_after)``, assignment and instances per op index.
_SwapTrace = tuple[
    list[int], list[int], list[tuple[int, int]], list[tuple[int, int]], int, int
]


class _Exact(NamedTuple):
    """One node's exact requirement under one model, with its artifacts.

    ``shifts`` is the first-fit shift per value slot; ``masks`` (dual
    models only) the subfile membership per slot; ``swap`` (Swapped only)
    the search's trace.
    """

    registers: int
    shifts: list[int]
    masks: list[int] | None = None
    swap: _SwapTrace | None = None


def _spill_arrays(
    la: LoopArrays,
    k: int,
    store_pool: int,
    load_pool: int,
    store_lat: int,
    load_lat: int,
) -> tuple[LoopArrays, int]:
    """Spill value slot ``k`` directly in array space, as a delta.

    The graph transform of :func:`repro.spill.spiller.spill_value` is pure
    appends plus consumer rewiring, so the child's :class:`LoopArrays` is
    derived from the parent's without materializing (or re-lowering) a
    :class:`DependenceGraph`: a store consuming the victim, one load per
    distinct ``(consumer, distance)``, every former use redirected to its
    load at distance 0, and a memory edge per load carrying the original
    distance.  The per-op lists are shallow copies of the parent's: only
    the victim's out-list and its consumers' in-lists are rebuilt, and the
    store and loads get fresh lists; every other list is shared (none is
    mutated after construction).  A spill keeps every distance, so the
    child inherits ``carried``.  Returns the child arrays and the number
    of loads added.
    """
    v = la.values[k]
    uses = la.cons[v]
    n_old = la.n
    store = n_old
    lat_v = la.latency[v]
    # One load per distinct (consumer, distance), in first-use order; a
    # consumer using the value twice at one distance shares a load (and
    # contributes two rewired uses to it).
    load_slot: dict[tuple[int, int], int] = {}
    load_cons: list[list[tuple[int, int]]] = []
    load_dist: list[int] = []
    for c, d in uses:
        j = load_slot.get((c, d))
        if j is None:
            j = len(load_cons)
            load_slot[(c, d)] = j
            load_cons.append([])
            load_dist.append(d)
        load_cons[j].append((c, 0))
    n_loads = len(load_cons)
    n = n_old + 1 + n_loads
    loads = range(n_old + 1, n)

    ids = la.ids + [la.ids[-1] + 1 + t for t in range(1 + n_loads)]
    index = dict(la.index)
    for t in range(n_old, n):
        index[ids[t]] = t
    cons = list(la.cons)
    cons[v] = [(store, 0)]
    cons.append([])  # the store defines no value
    cons.extend(load_cons)

    # The victim keeps its explicit out-edges behind its one flow edge,
    # now to the store.
    out_edges = list(la.out_edges)
    out_edges[v] = [(store, lat_v, 0)] + la.out_edges[v][len(uses):]
    out_edges.append([(load, 1, load_dist[j]) for j, load in enumerate(loads)])
    out_edges.extend(
        [(c, load_lat, 0) for c, _zero in load_cons[j]] for j in range(n_loads)
    )
    # Each consumer drops one ``(victim, lat_v, d)`` in-edge per use at
    # distance ``d`` -- counted, so an explicit victim edge that happens
    # to look the same survives -- and gains one from its load per use.
    drop: dict[tuple[int, int], int] = {}
    for c, d in uses:
        drop[(c, d)] = drop.get((c, d), 0) + 1
    in_edges = list(la.in_edges)
    for c in dict.fromkeys(c for c, _d in uses):
        kept: list[tuple[int, int, int]] = []
        for edge in la.in_edges[c]:
            src, delay, d = edge
            if src == v and delay == lat_v and drop.get((c, d), 0):
                drop[(c, d)] -= 1
                continue
            kept.append(edge)
        in_edges[c] = kept
    for j, load in enumerate(loads):
        in_edges[load_cons[j][0][0]].extend(
            [(load, load_lat, 0)] * len(load_cons[j])
        )
    in_edges.append([(v, lat_v, 0)])
    in_edges.extend([(store, 1, d)] for d in load_dist)

    # Extend the parent's sinks-first order instead of re-sorting: the
    # store, and every load feeding its consumer at distance 0 (which
    # already precedes the victim), go right before the victim; the other
    # loads have no distance-0 predecessor and go last.
    relax_order: list[int] | None = None
    if la.relax_order is not None:
        at = la.relax_order.index(v)
        near = [load for j, load in enumerate(loads) if load_dist[j] == 0]
        far = [load for j, load in enumerate(loads) if load_dist[j] != 0]
        relax_order = (
            la.relax_order[:at] + near + [store] + la.relax_order[at:] + far
        )

    child = LoopArrays(
        ma=la.ma,
        n=n,
        ids=ids,
        index=index,
        pool=la.pool + [store_pool] + [load_pool] * n_loads,
        latency=la.latency + [store_lat] + [load_lat] * n_loads,
        defines=la.defines + [False] + [True] * n_loads,
        values=la.values + list(loads),
        cons=cons,
        in_edges=in_edges,
        out_edges=out_edges,
        carried=la.carried,
        relax_order=relax_order,
    )
    return child, n_loads


class _Node:
    """One state ``(graph, min II)`` of a loop's universal spill chain.

    Every artifact is lazy and computed at most once per node, no matter how
    many (model, budget) walks traverse it.  Only the root carries an actual
    :class:`DependenceGraph` (via the chain); spill children live entirely
    in array space (:func:`_spill_arrays`), and an escalation child shares
    the parent's lowered arrays and MII outright (the graph is unchanged;
    only the scheduling floor moves).  ``origin`` records how a child was
    derived -- ``(parent, victim op id)`` for a spill, ``(parent, None)``
    for an escalation -- so :attr:`graph` can replay it on demand.
    """

    __slots__ = (
        "chain",
        "min_ii",
        "mem_ops",
        "spill_ops",
        "is_spill",
        "is_spill_store",
        "_la",
        "_mii",
        "_rec_floor",
        "_sched",
        "_bounds",
        "_maxlive",
        "_asg",
        "_victim",
        "_spill_child",
        "_esc_child",
        "_exact",
        "_dual_lb",
        "_origin",
        "_graph",
        "_schedule",
        "_lifetimes",
    )

    def __init__(
        self,
        chain: "LoopChain",
        min_ii: int,
        mem_ops: int,
        spill_ops: int,
        is_spill: list[bool],
        is_spill_store: list[bool],
        la: LoopArrays | None = None,
        mii: int | None = None,
        rec_floor: int = 1,
        origin: "tuple[_Node, int | None] | None" = None,
    ) -> None:
        self.chain = chain
        self.min_ii = min_ii
        #: Memory/spill op counts per iteration, maintained incrementally:
        #: one spill adds one store plus one load per distinct (consumer,
        #: distance), all of them spill memory ops.
        self.mem_ops = mem_ops
        self.spill_ops = spill_ops
        #: Per op index: ``is_spill`` and ``is_spill and STORE`` flags.
        self.is_spill = is_spill
        self.is_spill_store = is_spill_store
        self._la = la
        self._mii = mii
        #: A lower bound on this state's RecMII (exact once the MII search
        #: had to look past it); spill children inherit it.
        self._rec_floor = rec_floor
        self._sched: tuple[list[int], list[int], int] | None = None
        self._bounds: tuple[list[int], list[int]] | None = None
        self._maxlive: int | None = None
        self._asg: list[int] | None = None
        self._victim = _UNSET
        self._spill_child: "_Node | None" = None
        self._esc_child: "_Node | None" = None
        self._exact: dict[object, _Exact] = {}
        self._dual_lb: int | None = None
        self._origin = origin
        self._graph: DependenceGraph | None = None
        self._schedule: Schedule | None = None
        self._lifetimes: dict[int, Lifetime] | None = None

    # ------------------------------------------------------------------
    # Schedule-stage artifacts (computed once, shared by every walk)
    # ------------------------------------------------------------------
    @property
    def la(self) -> LoopArrays:
        if self._la is None:  # only ever the root: children set arrays
            self._la = lower_loop(self.chain.graph, self.chain.machine)
        return self._la

    @property
    def mii(self) -> int:
        if self._mii is None:
            self._mii, self._rec_floor = array_mii(self.la, self._rec_floor)
        return self._mii

    @property
    def sched(self) -> tuple[list[int], list[int], int]:
        """``(times, instances, ii)``: the II search of ``modulo_schedule``."""
        if self._sched is None:
            la = self.la
            mii = self.mii
            ii = mii if mii > self.min_ii else self.min_ii
            max_ii = max(ii, sum(la.latency) + la.n + 16)
            while ii <= max_ii:
                result = kmodulo.attempt(la, ii, 16)
                if result is not None:
                    self._sched = (result[0], result[1], ii)
                    break
                ii += 1
            else:
                raise SchedulingFailure(
                    f"{self.chain.name}: no schedule up to II={max_ii} "
                    f"(MII={mii})"
                )
        return self._sched

    @property
    def ii(self) -> int:
        return self.sched[2]

    @property
    def bounds(self) -> tuple[list[int], list[int]]:
        """Lifetime ``[start, end)`` per value slot of ``la.values``."""
        if self._bounds is None:
            times, _insts, ii = self.sched
            self._bounds = lifetime_bounds(self.la, times, ii)
        return self._bounds

    @property
    def maxlive(self) -> int:
        """Peak of the live profile: the unified lower bound."""
        if self._maxlive is None:
            starts, ends = self.bounds
            if starts:
                self._maxlive = max(
                    live_profile_spans(zip(starts, ends), self.ii)
                )
            else:
                self._maxlive = 0
        return self._maxlive

    @property
    def asg(self) -> list[int]:
        """The scheduler's unit-binding cluster assignment, per op index."""
        if self._asg is None:
            la = self.la
            _times, insts, _ii = self.sched
            cluster_of = la.ma.cluster_of
            pool = la.pool
            self._asg = [
                cluster_of[pool[i]][insts[i]] for i in range(la.n)
            ]
        return self._asg

    # ------------------------------------------------------------------
    # Materialization (proof path only; grid walks never touch these)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DependenceGraph:
        """This state's dependence graph, replayed from the root on demand.

        Each spill child re-applies :func:`spill_value` to its parent's
        graph with the victim's op id, which allocates the same ids
        :func:`_spill_arrays` appended; an escalation child shares its
        parent's graph.  Walks that pass through a node share its replay.
        """
        if self._graph is None:
            if self._origin is None:
                self._graph = self.chain.graph
            else:
                parent, victim_op = self._origin
                graph = parent.graph
                self._graph = (
                    graph if victim_op is None else spill_value(graph, victim_op)
                )
        return self._graph

    @property
    def schedule(self) -> Schedule:
        """The array schedule lifted to a verified :class:`Schedule`.

        ``verify`` also rejects a replayed graph whose op ids or pools
        disagree with the chain's arrays.
        """
        if self._schedule is None:
            times, insts, ii = self.sched
            la = self.la
            names = la.ma.names
            placements = {
                op_id: Placement(
                    time=times[i], pool=names[la.pool[i]], instance=insts[i]
                )
                for i, op_id in enumerate(la.ids)
            }
            schedule = Schedule(self.graph, self.chain.machine, ii, placements)
            schedule.verify()
            self._schedule = schedule
        return self._schedule

    @property
    def lifetimes(self) -> dict[int, Lifetime]:
        """:attr:`bounds` keyed by producer id, shared by every allocation."""
        if self._lifetimes is None:
            ids = self.la.ids
            starts, ends = self.bounds
            self._lifetimes = {
                ids[v]: Lifetime(ids[v], starts[k], ends[k])
                for k, v in enumerate(self.la.values)
            }
        return self._lifetimes

    def lift(self, model: Model, estimator: SwapEstimator) -> Requirement:
        """The exact requirement under ``model`` as the public dataclasses.

        Lifts the artifacts :meth:`requirement` computed, never allocating
        again, into what :func:`repro.core.models.required_registers`
        returns for :attr:`schedule`.  The register count is the lifted
        allocation's own, so a lift that contradicts the walk stays
        visible to the proof.
        """
        exact = self._exact_for(model, estimator)
        schedule = self.schedule
        lts = self.lifetimes
        ii = self.ii
        ids = self.la.ids
        values = self.la.values
        starts = self.bounds[0]

        def placed(
            key: Callable[[int], tuple[int, ...]],
        ) -> dict[int, PlacedLifetime]:  # the dict allocator's order
            return {
                ids[values[k]]: PlacedLifetime(
                    lts[ids[values[k]]], exact.shifts[k], ii
                )
                for k in sorted(range(len(values)), key=key)
            }

        masks = exact.masks
        if masks is None:
            unified = UnifiedAllocation(
                schedule=schedule,
                lifetimes=lts,
                result=AllocationResult(
                    ii, placed(lambda k: (starts[k], k))
                ),
                max_live=self.maxlive,
            )
            return Requirement(
                model, unified.registers_required, unified=unified
            )
        asg = self.asg
        swap = None
        if exact.swap is not None:
            asg, insts, swaps, moves, before, after = exact.swap
            changed = {
                op_id: insts[i]
                for i, op_id in enumerate(ids)
                if insts[i] != schedule.placements[op_id].instance
            }
            if changed:
                schedule = schedule.with_instances(changed)
            swap = SwapResult(
                schedule=schedule,
                assignment=dict(zip(ids, asg)),
                swaps=tuple(swaps),
                estimate_before=before,
                estimate_after=after,
                moves=tuple(moves),
            )
        n_clusters = self.la.ma.n_clusters
        dual = DualAllocation(
            schedule=schedule,
            assignment=dict(zip(ids, asg)),
            classes=ValueClasses(
                value_clusters={
                    ids[v]: frozenset(
                        c for c in range(n_clusters) if masks[k] >> c & 1
                    )
                    for k, v in enumerate(values)
                },
                n_clusters=n_clusters,
            ),
            lifetimes=lts,
            placements=placed(
                lambda k: (-masks[k].bit_count(), starts[k], k)
            ),
        )
        return Requirement(
            model, dual.registers_required, dual=dual, swap=swap
        )

    # ------------------------------------------------------------------
    # Requirements: lower bounds gate, exact values memoize per model
    # ------------------------------------------------------------------
    def lower_bound(self, model: Model) -> int:
        """A cheap bound below the exact requirement under ``model``.

        MaxLive never exceeds the first-fit span (``ceil(span/II)``), so
        while the bound exceeds the budget the walk can spill without
        paying for an exact allocation.
        """
        if model is Model.PARTITIONED:
            if self._dual_lb is None:
                starts, ends = self.bounds
                self._dual_lb = kdual.dual_max_live(
                    self.la, self.asg, starts, ends, self.ii
                )
            return self._dual_lb
        if model is Model.SWAPPED:
            # Valid under *any* assignment: at the global peak cycle every
            # live value occupies at least one subfile, so the most loaded
            # subfile holds at least ceil(MaxLive / clusters) of them.
            return -(-self.maxlive // self.la.ma.n_clusters)
        return self.maxlive

    def requirement(self, model: Model, estimator: SwapEstimator) -> int:
        """Exact registers required under ``model`` (memoized per node)."""
        return self._exact_for(model, estimator).registers

    def _exact_for(self, model: Model, estimator: SwapEstimator) -> _Exact:
        if model is Model.PARTITIONED:
            key = "p"
        elif model is Model.SWAPPED:
            key = ("s", estimator)
        else:  # IDEAL and UNIFIED report the same unified allocation
            key = "u"
        exact = self._exact.get(key)
        if exact is None:
            if key == "u":
                exact = self._unified()
            elif key == "p":
                exact = self._dual(self.asg)
            else:
                exact = self._swapped(estimator)
            self._exact[key] = exact
        return exact

    def _unified(self) -> _Exact:
        """First-fit of the single file: ``allocate_unified`` exactly."""
        starts, ends = self.bounds
        ii = self.ii
        shifts = [0] * len(starts)
        if not starts:
            return _Exact(0, shifts)
        # Same insertion order as regalloc.firstfit.first_fit: increasing
        # start, ties by op id (slot order == id order).
        occupied = BitOccupancy()
        for k in sorted(range(len(starts)), key=lambda k: (starts[k], k)):
            shift = first_fit_shift(starts[k], ends[k], ii, (occupied,))
            shifts[k] = shift
            occupied.add(starts[k] + shift * ii, ends[k] + shift * ii)
        lo = min(a + f * ii for a, f in zip(starts, shifts))
        hi = max(b + f * ii for b, f in zip(ends, shifts))
        return _Exact(-(-(hi - lo) // ii), shifts)

    def _dual(
        self, asg: list[int], swap: _SwapTrace | None = None
    ) -> _Exact:
        """Dual-file first-fit under ``asg``: ``allocate_dual`` exactly."""
        starts, ends = self.bounds
        masks, shifts, registers = kdual.dual_allocation(
            self.la, asg, starts, ends, self.ii
        )
        return _Exact(registers, shifts, masks, swap)

    def _swapped(self, estimator: SwapEstimator) -> _Exact:
        """Greedy swap then dual allocation: ``swapped_requirement`` exactly."""
        la = self.la
        times, insts, ii = self.sched
        starts, ends = self.bounds
        rows = [t % ii for t in times]
        insts = list(insts)
        asg = list(self.asg)
        swaps, moves, before, after = greedy_swap_search(
            la,
            ii,
            rows,
            insts,
            asg,
            starts,
            ends,
            estimator is SwapEstimator.FIRSTFIT,
            1000,
            False,
        )
        return self._dual(asg, (asg, insts, swaps, moves, before, after))

    # ------------------------------------------------------------------
    # Transitions (model-independent: shared by every walk)
    # ------------------------------------------------------------------
    @property
    def victim(self) -> int | None:
        """The policy's victim as a value slot index, or ``None``."""
        if self._victim is _UNSET:
            self._victim = self._select_victim()
        return self._victim

    def _select_victim(self) -> int | None:
        la = self.la
        is_spill = self.is_spill
        is_spill_store = self.is_spill_store
        cons = la.cons
        values = la.values
        candidates = []
        for k, v in enumerate(values):
            if is_spill[v]:
                continue
            uses = cons[v]
            if not uses:
                continue
            # Skip values already spilled (only consumer: a spill store).
            if all(is_spill_store[c] for c, _dist in uses):
                continue
            candidates.append(k)
        if not candidates:
            return None
        if self.chain.policy == "first":
            return candidates[0]  # slots ascend with op id
        starts, ends = self.bounds
        ii = self.ii
        policy = self.chain.policy
        # Indices ascend with op ids, so every id tie break holds on slots.
        if policy == "longest":
            return max(
                candidates,
                key=lambda k: (ends[k] - starts[k], -values[k]),
            )
        if policy == "most_registers":
            return max(
                candidates,
                key=lambda k: (
                    -(-(ends[k] - starts[k]) // ii),
                    -values[k],
                ),
            )
        if policy == "most_consumers":
            return max(
                candidates,
                key=lambda k: (
                    len(cons[values[k]]),
                    ends[k] - starts[k],
                    -values[k],
                ),
            )
        if policy == "least_traffic":
            return min(
                candidates,
                key=lambda k: (
                    1 + len(set(cons[values[k]])),
                    # negated register cost: -ceil(length/II)
                    (starts[k] - ends[k]) // ii,
                    values[k],
                ),
            )
        raise ValueError(
            f"victim policy {policy!r} has no array implementation"
        )

    def spill_child(self) -> "_Node":
        """The state after spilling this node's victim (shared by walks)."""
        if self._spill_child is None:
            la = self.la
            machine = self.chain.machine
            ma = la.ma
            child_la, n_loads = _spill_arrays(
                la,
                self.victim,
                ma.index[machine.pool_for(OpType.STORE)],
                ma.index[machine.pool_for(OpType.LOAD)],
                machine.latency_of(OpType.STORE),
                machine.latency_of(OpType.LOAD),
            )
            added = 1 + n_loads
            victim_op = la.ids[la.values[self.victim]]
            self._spill_child = _Node(
                self.chain,
                self.min_ii,
                self.mem_ops + added,
                self.spill_ops + added,
                self.is_spill + [True] * added,
                self.is_spill_store + [True] + [False] * n_loads,
                la=child_la,
                rec_floor=self._rec_floor,
                origin=(self, victim_op),
            )
        return self._spill_child

    def escalation_child(self, next_ii: int) -> "_Node":
        """The state after rescheduling at ``next_ii`` (same arrays)."""
        if self._esc_child is None or self._esc_child.min_ii != next_ii:
            self._esc_child = _Node(
                self.chain,
                next_ii,
                self.mem_ops,
                self.spill_ops,
                self.is_spill,
                self.is_spill_store,
                la=self._la,
                mii=self._mii,
                rec_floor=self._rec_floor,
                origin=(self, None),
            )
        return self._esc_child


# ----------------------------------------------------------------------
# Chain-level results (plain integers; engine.jobs stamps loop metadata)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchPressure:
    """Root-node measurements of one chain (Figures 6/7 numbers)."""

    ii: int
    mii: int
    unified: int
    partitioned: int
    swapped: int
    max_live: int


@dataclass(frozen=True)
class BatchEvaluation:
    """Exit state of one (model, budget) walk (Figures 8/9 numbers)."""

    ii: int
    mii: int
    spilled_values: int
    ii_increases: int
    fits: bool
    memory_ops: int
    spill_ops: int
    registers: int


class LoopChain:
    """The shared spill chain of one (graph, machine, knobs) job group."""

    def __init__(
        self,
        graph: DependenceGraph,
        machine: MachineConfig,
        victim_policy: str = "longest",
        pressure_strategy: str = "spill",
        ii_escalation: str = "increment",
    ) -> None:
        if not supports(victim_policy, pressure_strategy):
            raise ValueError(
                f"victim policy {victim_policy!r} has no array "
                f"implementation; execute such jobs per point"
            )
        get_policy(victim_policy)  # unknown names fail as in the pipeline
        self.graph = graph
        self.name = graph.name
        self.machine = machine
        self.policy = victim_policy
        self.strategy = pressure_strategy
        self.escalation = get_escalation(ii_escalation)
        memory = graph.memory_operations()
        ops = graph.operations
        self.root = _Node(
            self,
            1,
            len(memory),
            sum(1 for op in memory if op.is_spill),
            [op.is_spill for op in ops],
            [op.is_spill and op.optype is OpType.STORE for op in ops],
        )

    def pressure(self, estimator: SwapEstimator) -> BatchPressure:
        """All models' requirements of the root schedule (no budget)."""
        root = self.root
        return BatchPressure(
            ii=root.ii,
            mii=root.mii,
            unified=root.requirement(Model.UNIFIED, estimator),
            partitioned=root.requirement(Model.PARTITIONED, estimator),
            swapped=root.requirement(Model.SWAPPED, estimator),
            max_live=root.maxlive,
        )

    def evaluate(
        self,
        model: Model,
        register_budget: int | None,
        estimator: SwapEstimator,
        max_rounds: int = 200,
    ) -> BatchEvaluation:
        """Walk the chain exactly as the Section 5.4 pass loop would.

        The walk carries only the model-dependent bookkeeping (plateau
        counters and the halt test); states and transitions come from the
        shared chain, so the Nth point of a sweep traverses memoized nodes.
        """
        return self._walk(model, register_budget, estimator, max_rounds)[0]

    def materialize(
        self,
        loop: Loop,
        model: Model,
        register_budget: int | None,
        estimator: SwapEstimator,
        max_rounds: int = 200,
    ) -> tuple[BatchEvaluation, LoopEvaluation]:
        """Walk like :meth:`evaluate`, then lift the exit node to artifacts.

        Returns the walk's summary (the numbers the engine serves) together
        with the full :class:`LoopEvaluation` of the node the walk exits on:
        the last *measured* state, exactly ``run_evaluation``'s
        ``last_schedule`` even when the round cap expires after a spill.
        The evaluation carries the chain's own claims (MII, spills, II
        increases, fit verdict) next to the materialized schedule and
        allocation; the requirement is the allocation's, never the walk's
        ``registers``, so a disagreement between the two stays visible to
        the caller (:func:`repro.check.coverage.chain_claims` turns it into
        a finding).
        """
        summary, node = self._walk(
            model, register_budget, estimator, max_rounds
        )
        requirement = node.lift(model, estimator)
        return summary, LoopEvaluation(
            loop=loop,
            machine=self.machine,
            model=model,
            register_budget=register_budget,
            schedule=node.schedule,
            requirement=requirement,
            mii=summary.mii,
            spilled_values=summary.spilled_values,
            ii_increases=summary.ii_increases,
            fits=summary.fits,
        )

    def _walk(
        self,
        model: Model,
        register_budget: int | None,
        estimator: SwapEstimator,
        max_rounds: int,
    ) -> tuple[BatchEvaluation, _Node]:
        """The walk behind :meth:`evaluate`, plus the node it exits on."""
        budget = None if model is Model.IDEAL else register_budget
        select_victims = self.strategy == "spill"
        escalation = self.escalation
        node = self.root
        spilled = 0
        ii_increases = 0
        stale = 0
        best: int | None = None
        fits = True
        halted = False
        last = node
        registers: int | None = None
        for _ in range(max_rounds):
            last = node
            registers = None
            if budget is None:
                registers = node.requirement(model, estimator)
                halted = True
                break
            if node.lower_bound(model) <= budget:
                registers = node.requirement(model, estimator)
                if registers <= budget:
                    halted = True
                    break
            victim = node.victim if select_victims else None
            if victim is None:
                if registers is None:
                    registers = node.requirement(model, estimator)
                if best is None or registers < best:
                    best = registers
                    stale = 0
                else:
                    stale += 1
                    if escalation.give_up(stale):
                        fits = False
                        halted = True
                        break
                next_ii = escalation.next_ii(node.ii)
                if next_ii <= node.min_ii:
                    raise ValueError(
                        f"escalation must raise the II "
                        f"(min_ii={node.min_ii}, next={next_ii})"
                    )
                node = node.escalation_child(next_ii)
                ii_increases += 1
            else:
                node = node.spill_child()
                spilled += 1
        if registers is None:
            # The final round spilled/escalated under the lower-bound gate;
            # the cap verdict still reads that round's measured requirement.
            registers = last.requirement(model, estimator)
        if not halted:
            fits = budget is None or registers <= budget
        return BatchEvaluation(
            ii=last.ii,
            mii=self.root.mii,
            spilled_values=spilled,
            ii_increases=ii_increases,
            fits=fits,
            memory_ops=last.mem_ops,
            spill_ops=last.spill_ops,
            registers=registers,
        ), last


__all__ = [
    "ARRAY_POLICIES",
    "BatchEvaluation",
    "BatchPressure",
    "LoopChain",
    "array_mii",
    "supports",
]
