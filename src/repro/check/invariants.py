"""Static proofs over one evaluated point: no execution, O(ops) per claim.

The simulator-grounded gate (:mod:`repro.validate`) proves a point by
*running* it, which is exact but costs cycles x iterations per point --
hence it samples.  Everything the paper claims about a point is, however,
provable *analytically* from the final (swapped/spilled) schedule and its
allocation alone:

* **dependence legality** -- every DDG edge (flow, memory, and the spill
  store/reload chains) satisfies
  ``sigma(cons) - sigma(prod) + II * distance >= delay``;
* **resource consistency** -- the modulo reservation table rebuilt from
  the schedule assigns every (row, pool, instance) slot at most once,
  every instance is in range and on the right pool, and the recomputed
  ``MII`` of the final graph does not exceed the II (a legal schedule at
  II is itself the witness that ``RecMII <= II``; the reservation table
  is the witness for ``ResMII``);
* **allocation soundness** -- lifetimes rebuilt from the schedule match
  the allocation's, every value owns exactly one placement, no two
  lifetimes sharing a (sub)file overlap after their wands-only shifts
  (the sheared-line geometry of :mod:`repro.regalloc.firstfit` makes
  register wraparound across II an interval-disjointness question), the
  dual-file classification stores each value in exactly its consumers'
  subfiles (the paper's cross-file read/write rules), swapping preserved
  issue times and pools, and every claimed register count equals the
  interference-derived minimum of the actual assignment
  (``ceil(span / II)``, never below MaxLive);
* **spill/traffic accounting** -- every reload has exactly one dominating
  spill store of the same symbol, the store saves a real value, the
  number of spill stores equals the claimed ``spilled_values``, the
  claimed ``memory_ops_per_iteration`` equals the count in the schedule,
  and no kernel row issues more memory operations than the bus allows.

Every verifier here re-derives its facts with straight-line dict/list
code -- deliberately *not* through :mod:`repro.kernel` -- so the proof is
independent of the optimized paths it certifies.  Failures are
:class:`Finding` records with the same actionable coordinates and
wire-shaped reproducers the dynamic gate emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.dualfile import DualAllocation
from repro.core.models import Model
from repro.ir.ddg import DependenceGraph, Edge
from repro.ir.operation import Operation, OpType, ValueRef
from repro.machine.config import MachineConfig
from repro.regalloc.allocation import UnifiedAllocation
from repro.regalloc.firstfit import PlacedLifetime
from repro.regalloc.lifetimes import Lifetime
from repro.sched.mii import MiiProbe, edge_delay, minimum_ii
from repro.sched.schedule import Schedule
from repro.spill.spiller import LoopEvaluation


@dataclass(frozen=True)
class Finding:
    """One disproved invariant, with actionable coordinates.

    Field-compatible with :class:`repro.validate.differential.Mismatch`
    so the dynamic gate can fold static findings into its reports.
    """

    kind: str  # "dependence" | "resource" | "mii" | "allocation" |
    #           "lifetime" | "classification" | "swap" | "requirement" |
    #           "spill" | "traffic" | "bus" | "claim"
    message: str
    op: str | None = None
    cycle: int | None = None
    file: str | None = None
    register: int | None = None
    expected: object = None
    observed: object = None

    def describe(self) -> str:
        parts = [f"[static:{self.kind}] {self.message}"]
        where = []
        if self.op is not None:
            where.append(f"op={self.op}")
        if self.cycle is not None:
            where.append(f"cycle={self.cycle}")
        if self.file is not None:
            where.append(f"file={self.file}")
        if self.register is not None:
            where.append(f"register=r{self.register}")
        if self.expected is not None or self.observed is not None:
            where.append(
                f"expected={self.expected!r} observed={self.observed!r}"
            )
        if where:
            parts.append("  " + " ".join(where))
        return "\n".join(parts)


@dataclass(frozen=True)
class StaticCheck:
    """Outcome of statically verifying one evaluated point."""

    reproducer: dict
    model: str
    register_budget: int | None
    ii: int
    edges_checked: int
    values_checked: int
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        head = (
            f"{self.model} budget={self.register_budget} static: "
            f"II {self.ii}, {self.edges_checked} edges, "
            f"{self.values_checked} values -- "
            + ("PROVED" if self.ok else f"{len(self.findings)} finding(s)")
        )
        lines = [head]
        for finding in self.findings:
            lines.append(finding.describe())
        if self.findings:
            lines.append(f"  reproduce: {self.reproducer}")
        return "\n".join(lines)


class StaticCheckError(RuntimeError):
    """An evaluated point carries no allocation to verify."""


# ----------------------------------------------------------------------
# Independent re-derivations (dict/list scans, no repro.kernel dispatch)
# ----------------------------------------------------------------------
def rebuild_lifetimes(schedule: Schedule) -> dict[int, Lifetime]:
    """Recompute every value's lifetime straight from the definition.

    ``start = t(producer)``, ``end = max(t(producer) + latency(producer),
    max over uses of t(consumer) + distance * II + latency(consumer))`` --
    the paper's interruptible-code rule, re-derived by a direct operand
    scan so it cannot share a bug with :mod:`repro.kernel.lifetimes`.
    """
    graph = schedule.graph
    machine = schedule.machine
    ii = schedule.ii
    ends: dict[int, int] = {}
    for op in graph.operations:
        issue = schedule.time_of(op.op_id)
        finish = issue + machine.latency_of(op)
        for operand in op.operands:
            if isinstance(operand, ValueRef):
                use_end = finish + operand.distance * ii
                if use_end > ends.get(operand.producer, 0):
                    ends[operand.producer] = use_end
    result: dict[int, Lifetime] = {}
    for op in graph.operations:
        if not op.defines_value:
            continue
        start = schedule.time_of(op.op_id)
        end = max(
            start + machine.latency_of(op), ends.get(op.op_id, 0)
        )
        result[op.op_id] = Lifetime(op.op_id, start, end)
    return result


def rebuild_value_clusters(
    graph: DependenceGraph, assignment: Mapping[int, int]
) -> dict[int, frozenset[int]]:
    """Which subfiles must store each value, from its consumers alone."""
    readers: dict[int, set[int]] = {}
    for op in graph.operations:
        for operand in op.operands:
            if isinstance(operand, ValueRef):
                readers.setdefault(operand.producer, set()).add(
                    assignment[op.op_id]
                )
    clusters: dict[int, frozenset[int]] = {}
    for op in graph.operations:
        if not op.defines_value:
            continue
        read_by = readers.get(op.op_id)
        if read_by:
            clusters[op.op_id] = frozenset(read_by)
        else:
            clusters[op.op_id] = frozenset({assignment[op.op_id]})
    return clusters


def span_registers(placements: Iterable[PlacedLifetime], ii: int) -> int:
    """Interference-derived minimum register count of placed lifetimes."""
    starts_ends = [(p.start, p.end) for p in placements]
    if not starts_ends:
        return 0
    span = max(e for _s, e in starts_ends) - min(s for s, _e in starts_ends)
    return math.ceil(span / ii)


def interference_bound(lts: Iterable[Lifetime], ii: int) -> int:
    """MaxLive recomputed by folding lifetimes onto the kernel rows.

    In steady state a new instance of every variant starts each II, so a
    lifetime of span ``end - start`` keeps ``span // ii`` instances live
    at *every* kernel row plus one more on the ``span % ii`` rows after
    ``start % ii`` -- counted here by direct row bumping, independent of
    both :mod:`repro.regalloc.maxlive` and the kernel difference arrays.
    """
    profile = [0] * max(ii, 1)
    for lt in lts:
        full, rem = divmod(lt.end - lt.start, ii)
        for row in range(ii):
            profile[row] += full
        for offset in range(rem):
            profile[(lt.start + offset) % ii] += 1
    return max(profile, default=0)


def _op_label(graph: DependenceGraph, op_id: int) -> str:
    try:
        return graph.op(op_id).name
    except KeyError:
        return f"op{op_id}"


# ----------------------------------------------------------------------
# Invariant 1: dependence legality
# ----------------------------------------------------------------------
def check_dependences(schedule: Schedule) -> tuple[list[Finding], int]:
    """Prove every edge: sigma(dst) - sigma(src) + II * distance >= delay."""
    findings: list[Finding] = []
    graph = schedule.graph
    edges = graph.edges()
    for edge in edges:
        delay = edge_delay(edge, graph, schedule.machine)
        slack = (
            schedule.time_of(edge.dst)
            - schedule.time_of(edge.src)
            + schedule.ii * edge.distance
            - delay
        )
        if slack < 0:
            findings.append(
                Finding(
                    kind="dependence",
                    message=(
                        f"{edge.kind.value} edge "
                        f"{_op_label(graph, edge.src)} -> "
                        f"{_op_label(graph, edge.dst)} "
                        f"(distance {edge.distance}) violated by "
                        f"{-slack} cycle(s)"
                    ),
                    op=_op_label(graph, edge.dst),
                    cycle=schedule.time_of(edge.dst),
                    expected=(
                        schedule.time_of(edge.src)
                        + delay
                        - schedule.ii * edge.distance
                    ),
                    observed=schedule.time_of(edge.dst),
                )
            )
    return findings, len(edges)


# ----------------------------------------------------------------------
# Invariant 2: resource consistency (modulo reservation table + MII)
# ----------------------------------------------------------------------
def check_resources(schedule: Schedule) -> list[Finding]:
    """Rebuild the reservation table; prove no slot is oversubscribed."""
    findings: list[Finding] = []
    graph = schedule.graph
    machine = schedule.machine
    ii = schedule.ii
    if ii < 1:
        return [
            Finding(
                kind="resource",
                message="II must be >= 1",
                observed=ii,
            )
        ]
    table: dict[tuple[int, str, int], int] = {}
    placed = set(schedule.placements)
    expected_ids = {op.op_id for op in graph.operations}
    for op_id in sorted(expected_ids - placed):
        findings.append(
            Finding(
                kind="resource",
                message="operation has no placement",
                op=_op_label(graph, op_id),
            )
        )
    for op_id in sorted(placed - expected_ids):
        findings.append(
            Finding(
                kind="resource",
                message="placement names an operation outside the graph",
                op=f"op{op_id}",
            )
        )
    for op_id in sorted(placed & expected_ids):
        placement = schedule.placements[op_id]
        name = _op_label(graph, op_id)
        if placement.time < 0:
            findings.append(
                Finding(
                    kind="resource",
                    message="operation scheduled at negative time",
                    op=name,
                    cycle=placement.time,
                )
            )
            continue
        pool = machine.pool_for(graph.op(op_id))
        if placement.pool != pool:
            findings.append(
                Finding(
                    kind="resource",
                    message="operation placed on the wrong pool",
                    op=name,
                    cycle=placement.time % ii,
                    expected=pool,
                    observed=placement.pool,
                )
            )
            continue
        if not 0 <= placement.instance < machine.units(pool):
            findings.append(
                Finding(
                    kind="resource",
                    message="unit instance out of range",
                    op=name,
                    cycle=placement.time % ii,
                    file=pool,
                    observed=placement.instance,
                    expected=machine.units(pool) - 1,
                )
            )
            continue
        slot = (placement.time % ii, placement.pool, placement.instance)
        if slot in table:
            findings.append(
                Finding(
                    kind="resource",
                    message=(
                        f"reservation row oversubscribed: "
                        f"{_op_label(graph, table[slot])} and {name} "
                        f"share {slot[1]}[{slot[2]}]"
                    ),
                    op=name,
                    cycle=slot[0],
                    file=f"{slot[1]}[{slot[2]}]",
                )
            )
        else:
            table[slot] = op_id
    return findings


def check_mii(evaluation: LoopEvaluation, schedule: Schedule) -> list[Finding]:
    """Prove MII <= II of the final graph and the original MII claim.

    ``MII <= x`` is monotone in ``x``, so each proof is a probe
    (:class:`~repro.sched.mii.MiiProbe`) rather than the MII search: one
    at the II, and two for the claim ``m`` (``MII <= m`` and not
    ``MII <= m - 1``).  :func:`minimum_ii` runs only to report the MII a
    finding expected.
    """
    findings: list[Finding] = []
    final = MiiProbe(schedule.graph, schedule.machine)
    if not final.at_most(schedule.ii):
        findings.append(
            Finding(
                kind="mii",
                message=(
                    "II below the recomputed MII of the final graph"
                ),
                expected=minimum_ii(schedule.graph, schedule.machine).mii,
                observed=schedule.ii,
            )
        )
    claimed = evaluation.mii
    graph, machine = evaluation.loop.graph, evaluation.machine
    original = (
        final
        if graph is schedule.graph and machine is schedule.machine
        else MiiProbe(graph, machine)
    )
    if not original.at_most(claimed) or original.at_most(claimed - 1):
        findings.append(
            Finding(
                kind="mii",
                message="claimed MII differs from recomputation",
                expected=minimum_ii(graph, machine).mii,
                observed=claimed,
            )
        )
    return findings


# ----------------------------------------------------------------------
# Invariant 3: allocation soundness
# ----------------------------------------------------------------------
def _file_overlaps(
    graph: DependenceGraph,
    file_name: str,
    placements: list[PlacedLifetime],
    ii: int,
) -> list[Finding]:
    """Disjointness of one (sub)file on the sheared line.

    Two placed intervals overlap iff their values collide in a physical
    register cell of the rotating file (wraparound across II included:
    the shear already folds the torus onto the line).
    """
    findings: list[Finding] = []
    ordered = sorted(placements, key=lambda p: (p.start, p.op_id))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end:
            findings.append(
                Finding(
                    kind="allocation",
                    message=(
                        f"values {_op_label(graph, prev.op_id)} and "
                        f"{_op_label(graph, cur.op_id)} overlap in the "
                        f"same register cell: [{prev.start},{prev.end}) "
                        f"vs [{cur.start},{cur.end})"
                    ),
                    op=_op_label(graph, cur.op_id),
                    cycle=cur.lifetime.start,
                    file=file_name,
                    register=cur.start // ii,
                )
            )
    return findings


def _check_placement_table(
    graph: DependenceGraph,
    file_name: str,
    placements: Mapping[int, PlacedLifetime],
    expected_values: set[int],
    rebuilt: Mapping[int, Lifetime],
    ii: int,
) -> list[Finding]:
    """Coverage + lifetime fidelity of one placement table."""
    findings: list[Finding] = []
    for op_id in sorted(expected_values - set(placements)):
        findings.append(
            Finding(
                kind="allocation",
                message="value has no register placement",
                op=_op_label(graph, op_id),
                cycle=rebuilt[op_id].start if op_id in rebuilt else None,
                file=file_name,
            )
        )
    for op_id in sorted(set(placements) - expected_values):
        findings.append(
            Finding(
                kind="allocation",
                message="placement for a value the schedule does not define",
                op=_op_label(graph, op_id),
                file=file_name,
            )
        )
    for op_id in sorted(set(placements) & expected_values):
        placed = placements[op_id]
        truth = rebuilt[op_id]
        if placed.ii != ii:
            findings.append(
                Finding(
                    kind="allocation",
                    message="placement uses a different II",
                    op=_op_label(graph, op_id),
                    file=file_name,
                    expected=ii,
                    observed=placed.ii,
                )
            )
        if placed.shift < 0:
            findings.append(
                Finding(
                    kind="allocation",
                    message="negative register shift",
                    op=_op_label(graph, op_id),
                    file=file_name,
                    observed=placed.shift,
                )
            )
        if (placed.lifetime.start, placed.lifetime.end) != (
            truth.start,
            truth.end,
        ):
            findings.append(
                Finding(
                    kind="lifetime",
                    message=(
                        "allocated lifetime differs from the schedule's"
                    ),
                    op=_op_label(graph, op_id),
                    cycle=truth.start,
                    file=file_name,
                    expected=(truth.start, truth.end),
                    observed=(placed.lifetime.start, placed.lifetime.end),
                )
            )
    return findings


def _check_unified(
    evaluation: LoopEvaluation,
    allocation: UnifiedAllocation,
    rebuilt: dict[int, Lifetime],
) -> list[Finding]:
    findings: list[Finding] = []
    schedule = allocation.schedule
    graph = schedule.graph
    ii = schedule.ii
    values = set(rebuilt)
    placements = allocation.result.placements
    findings.extend(
        _check_placement_table(
            graph, "unified", placements, values, rebuilt, ii
        )
    )
    valid = [
        placements[op_id]
        for op_id in sorted(values & set(placements))
    ]
    findings.extend(_file_overlaps(graph, "unified", valid, ii))
    claimed = evaluation.requirement.registers
    minimum = span_registers(valid, ii)
    if not findings and claimed != minimum:
        findings.append(
            Finding(
                kind="requirement",
                message=(
                    "claimed register count differs from the "
                    "interference-derived minimum of the assignment"
                ),
                file="unified",
                expected=minimum,
                observed=claimed,
            )
        )
    bound = interference_bound(rebuilt.values(), ii)
    if not findings and claimed < bound:
        findings.append(
            Finding(
                kind="requirement",
                message="claimed register count below MaxLive",
                file="unified",
                expected=bound,
                observed=claimed,
            )
        )
    if allocation.max_live != bound:
        findings.append(
            Finding(
                kind="requirement",
                message="claimed MaxLive differs from recomputation",
                file="unified",
                expected=bound,
                observed=allocation.max_live,
            )
        )
    return findings


def _check_dual(
    evaluation: LoopEvaluation,
    allocation: DualAllocation,
    rebuilt: dict[int, Lifetime],
) -> list[Finding]:
    findings: list[Finding] = []
    schedule = allocation.schedule
    graph = schedule.graph
    ii = schedule.ii
    machine = schedule.machine
    values = set(rebuilt)

    # Swap legality: the allocation's schedule may only differ from the
    # scheduler's in unit instances -- same times, same pools.
    base = evaluation.schedule
    if base is not schedule:
        for op_id in sorted(values | set(base.placements)):
            before = base.placements.get(op_id)
            after = schedule.placements.get(op_id)
            if before is None or after is None:
                continue  # coverage findings come from check_resources
            if (before.time, before.pool) != (after.time, after.pool):
                findings.append(
                    Finding(
                        kind="swap",
                        message=(
                            "swapping changed more than the unit instance"
                        ),
                        op=_op_label(graph, op_id),
                        cycle=after.time,
                        expected=(before.time, before.pool),
                        observed=(after.time, after.pool),
                    )
                )

    # The assignment must be the allocation schedule's own unit binding.
    for op_id in sorted(values | set(allocation.assignment)):
        claimed_cluster = allocation.assignment.get(op_id)
        if op_id not in schedule.placements or claimed_cluster is None:
            findings.append(
                Finding(
                    kind="classification",
                    message="assignment and schedule disagree on coverage",
                    op=_op_label(graph, op_id),
                )
            )
            continue
        placement = schedule.placements[op_id]
        actual = machine.cluster_of_instance(
            placement.pool, placement.instance
        )
        if claimed_cluster != actual:
            findings.append(
                Finding(
                    kind="classification",
                    message=(
                        "assignment disagrees with the scheduled unit's "
                        "cluster"
                    ),
                    op=_op_label(graph, op_id),
                    cycle=placement.time,
                    expected=actual,
                    observed=claimed_cluster,
                )
            )

    # Classification: each value lives in exactly its consumers' subfiles.
    truth_clusters = rebuild_value_clusters(graph, allocation.assignment)
    claimed_clusters = allocation.classes.value_clusters
    for op_id in sorted(set(truth_clusters) | set(claimed_clusters)):
        truth = truth_clusters.get(op_id)
        claimed = claimed_clusters.get(op_id)
        if truth != claimed:
            findings.append(
                Finding(
                    kind="classification",
                    message=(
                        "value stored in the wrong subfiles for its "
                        "consumers"
                    ),
                    op=_op_label(graph, op_id),
                    expected=sorted(truth) if truth else None,
                    observed=sorted(claimed) if claimed else None,
                )
            )
    if findings:
        return findings

    # Per-subfile placement tables share one placement per value (which
    # is exactly the paper's "globals take the same index in every
    # subfile" rule); prove coverage, fidelity, and disjointness per file.
    placements = allocation.placements
    findings.extend(
        _check_placement_table(
            graph, "placements", placements, values, rebuilt, ii
        )
    )
    if findings:
        return findings
    per_file_claim: dict[str, int] = {}
    for cluster in range(allocation.n_clusters):
        file_name = f"subfile{cluster}"
        members = sorted(
            op_id
            for op_id, clusters in truth_clusters.items()
            if cluster in clusters
        )
        file_placements = [placements[op_id] for op_id in members]
        findings.extend(
            _file_overlaps(graph, file_name, file_placements, ii)
        )
        minimum = span_registers(file_placements, ii)
        claimed = allocation.cluster_registers(cluster)
        per_file_claim[file_name] = claimed
        if claimed != minimum:
            findings.append(
                Finding(
                    kind="requirement",
                    message=(
                        "claimed subfile register count differs from the "
                        "interference-derived minimum of the assignment"
                    ),
                    file=file_name,
                    expected=minimum,
                    observed=claimed,
                )
            )
        bound = interference_bound(
            (rebuilt[op_id] for op_id in members), ii
        )
        if not findings and claimed < bound:
            findings.append(
                Finding(
                    kind="requirement",
                    message="claimed subfile count below MaxLive",
                    file=file_name,
                    expected=bound,
                    observed=claimed,
                )
            )
    claimed_total = evaluation.requirement.registers
    recomputed_total = max(per_file_claim.values(), default=0)
    if not findings and claimed_total != recomputed_total:
        findings.append(
            Finding(
                kind="requirement",
                message=(
                    "reported requirement differs from the most loaded "
                    "subfile"
                ),
                expected=recomputed_total,
                observed=claimed_total,
            )
        )
    return findings


# ----------------------------------------------------------------------
# Invariant 4: spill chains and traffic accounting
# ----------------------------------------------------------------------
def check_spills(
    evaluation: LoopEvaluation, schedule: Schedule
) -> list[Finding]:
    findings: list[Finding] = []
    graph = schedule.graph
    stores = [
        op
        for op in graph.operations
        if op.is_spill and op.optype is OpType.STORE
    ]
    reloads = [
        op
        for op in graph.operations
        if op.is_spill and op.optype is OpType.LOAD
    ]
    store_by_id = {op.op_id: op for op in stores}
    incoming: dict[int, list[Edge]] = {op.op_id: [] for op in reloads}
    for edge in graph.extra_edges():
        if edge.dst in incoming and edge.src in store_by_id:
            incoming[edge.dst].append(edge)

    for store in stores:
        refs = [
            operand
            for operand in store.operands
            if isinstance(operand, ValueRef)
        ]
        if len(refs) != 1 or not graph.op(refs[0].producer).defines_value:
            findings.append(
                Finding(
                    kind="spill",
                    message="spill store does not save exactly one value",
                    op=store.name,
                    cycle=schedule.time_of(store.op_id),
                    observed=len(refs),
                    expected=1,
                )
            )

    for reload in reloads:
        edges = incoming[reload.op_id]
        matching = [
            e
            for e in edges
            if store_by_id[e.src].symbol == reload.symbol
        ]
        if len(matching) != 1:
            findings.append(
                Finding(
                    kind="spill",
                    message=(
                        "reload lacks exactly one dominating spill store "
                        "of its symbol"
                    ),
                    op=reload.name,
                    cycle=schedule.time_of(reload.op_id),
                    file=reload.symbol,
                    expected=1,
                    observed=len(matching),
                )
            )
            continue
        edge = matching[0]
        store_time = schedule.time_of(edge.src)
        reload_time = schedule.time_of(reload.op_id)
        delay = edge_delay(edge, graph, schedule.machine)
        if reload_time + schedule.ii * edge.distance < store_time + delay:
            findings.append(
                Finding(
                    kind="spill",
                    message="reload issues before its store's value exists",
                    op=reload.name,
                    cycle=reload_time,
                    expected=store_time + delay
                    - schedule.ii * edge.distance,
                    observed=reload_time,
                )
            )

    # ``spilled_values`` counts spills the pipeline itself performed
    # (one per spill round), so spill stores already present in the
    # input graph -- a loop whose source was pre-spilled -- must not be
    # charged to the claim.
    preexisting = sum(
        1
        for op in evaluation.loop.graph.operations
        if op.is_spill and op.optype is OpType.STORE
    )
    if evaluation.spilled_values != len(stores) - preexisting:
        findings.append(
            Finding(
                kind="spill",
                message=(
                    "claimed spilled_values differs from the spill "
                    "stores the pipeline added to the schedule"
                ),
                expected=len(stores) - preexisting,
                observed=evaluation.spilled_values,
            )
        )
    return findings


def check_traffic(
    evaluation: LoopEvaluation, schedule: Schedule
) -> list[Finding]:
    findings: list[Finding] = []
    graph = schedule.graph
    ii = schedule.ii
    memory_ops = [
        op for op in graph.operations if op.optype.is_memory
    ]
    claimed = evaluation.memory_ops_per_iteration
    if claimed != len(memory_ops):
        findings.append(
            Finding(
                kind="traffic",
                message=(
                    "claimed memory_ops_per_iteration differs from the "
                    "memory operations in the schedule"
                ),
                expected=len(memory_ops),
                observed=claimed,
            )
        )
    bandwidth = evaluation.machine.memory_bandwidth
    per_row: dict[int, int] = {}
    for op in memory_ops:
        if op.op_id not in schedule.placements:
            continue  # resource findings cover missing placements
        row = schedule.placements[op.op_id].time % ii
        per_row[row] = per_row.get(row, 0) + 1
    for row in sorted(per_row):
        if per_row[row] > bandwidth:
            findings.append(
                Finding(
                    kind="bus",
                    message=(
                        "kernel row issues more memory operations than "
                        "the bus allows"
                    ),
                    cycle=row,
                    expected=bandwidth,
                    observed=per_row[row],
                )
            )
    return findings


def check_budget(evaluation: LoopEvaluation) -> list[Finding]:
    findings: list[Finding] = []
    budget = evaluation.register_budget
    if (
        evaluation.fits
        and budget is not None
        and evaluation.model is not Model.IDEAL
        and evaluation.requirement.registers > budget
    ):
        findings.append(
            Finding(
                kind="requirement",
                message="point claims to fit but exceeds its budget",
                expected=budget,
                observed=evaluation.requirement.registers,
            )
        )
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def allocation_of(
    evaluation: LoopEvaluation,
) -> tuple[Schedule, UnifiedAllocation | DualAllocation]:
    """The schedule/allocation pair a point is proved against.

    A module-level seam exactly like
    :func:`repro.validate.differential.allocation_for`: mutation tests
    monkeypatch it to inject corrupted allocations.
    """
    requirement = evaluation.requirement
    if requirement.dual is not None:
        return requirement.dual.schedule, requirement.dual
    if requirement.unified is not None:
        return requirement.unified.schedule, requirement.unified
    raise StaticCheckError(
        f"evaluation of {evaluation.loop.name} under "
        f"{evaluation.model.value} carries no allocation to verify"
    )


def check_evaluation(
    evaluation: LoopEvaluation, reproducer: dict | None = None
) -> StaticCheck:
    """Prove one evaluated point's claims without executing it."""
    if reproducer is None:
        reproducer = {
            "loop": {"name": evaluation.loop.name},
            "machine": {"name": evaluation.machine.name},
            "model": evaluation.model.value,
            "register_budget": evaluation.register_budget,
        }
    reproducer = dict(reproducer, static=True)
    findings: list[Finding] = []
    schedule, allocation = allocation_of(evaluation)

    if schedule.ii != evaluation.ii:
        findings.append(
            Finding(
                kind="requirement",
                message="allocation's schedule disagrees with the claimed II",
                expected=evaluation.ii,
                observed=schedule.ii,
            )
        )

    dependence, edges_checked = check_dependences(schedule)
    findings.extend(dependence)
    findings.extend(check_resources(schedule))
    findings.extend(check_mii(evaluation, schedule))

    rebuilt = rebuild_lifetimes(schedule)
    if isinstance(allocation, DualAllocation):
        findings.extend(_check_dual(evaluation, allocation, rebuilt))
    else:
        findings.extend(_check_unified(evaluation, allocation, rebuilt))

    findings.extend(check_spills(evaluation, schedule))
    findings.extend(check_traffic(evaluation, schedule))
    findings.extend(check_budget(evaluation))

    return StaticCheck(
        reproducer=reproducer,
        model=evaluation.model.value,
        register_budget=evaluation.register_budget,
        ii=evaluation.ii,
        edges_checked=edges_checked,
        values_checked=len(rebuilt),
        findings=tuple(findings),
    )


__all__ = [
    "Finding",
    "StaticCheck",
    "StaticCheckError",
    "allocation_of",
    "check_budget",
    "check_dependences",
    "check_evaluation",
    "check_mii",
    "check_resources",
    "check_spills",
    "check_traffic",
    "interference_bound",
    "rebuild_lifetimes",
    "rebuild_value_clusters",
    "span_registers",
]
