"""Minimum initiation interval: resource bound and recurrence bound.

``MII = max(ResMII, RecMII)`` (Rau & Glaeser [7]).

* **ResMII**: for each resource pool, ceil(uses / units); the maximum over
  pools.  All units are fully pipelined, so each operation occupies one unit
  for one cycle.
* **RecMII**: the smallest II such that no dependence cycle requires more
  latency than ``II * distance`` supplies.  Equivalently, the smallest II for
  which the graph with edge weights ``delay(e) - II * distance(e)`` has no
  positive-weight cycle; found by binary search with a Bellman-Ford-style
  positive-cycle test.

Because edge weights only fall as II grows, ``MII <= ii`` is monotone in
``ii``.  :class:`MiiProbe` decides it with ResMII and at most one
positive-cycle test, which is all a proof of a *given* II needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.ddg import DependenceGraph, Edge, EdgeKind, ValueRef
from repro.machine.config import MachineConfig


def edge_delay(edge: Edge, graph: DependenceGraph, machine: MachineConfig) -> int:
    """Minimum issue-to-issue delay of a dependence edge.

    Flow edges require the producer's result: delay = producer latency.
    Explicit memory/ordering edges carry their own minimum delay.
    """
    if edge.kind is EdgeKind.FLOW:
        return machine.latency_of(graph.op(edge.src))
    return edge.min_delay if edge.min_delay is not None else 1


def res_mii(graph: DependenceGraph, machine: MachineConfig) -> int:
    """Resource-constrained lower bound on the initiation interval."""
    uses: dict[str, int] = {}
    for op in graph.operations:
        pool = machine.pool_for(op)
        uses[pool] = uses.get(pool, 0) + 1
    if not uses:
        return 1
    return max(
        math.ceil(count / machine.units(pool)) for pool, count in uses.items()
    )


def _weighted_edges(
    graph: DependenceGraph, machine: MachineConfig
) -> list[tuple[int, int, int, int]]:
    """``(src, dst, delay, distance)`` per dependence edge.

    Flow edges are read straight off the operands (delay: the producer's
    latency, as :func:`edge_delay` gives it) rather than through
    :class:`Edge` records; explicit edges follow.
    """
    latency = {op.op_id: machine.latency_of(op) for op in graph.operations}
    edges = [
        (ref.producer, op.op_id, latency[ref.producer], ref.distance)
        for op in graph.operations
        for ref in op.operands
        if isinstance(ref, ValueRef)
    ]
    edges.extend(
        (e.src, e.dst, edge_delay(e, graph, machine), e.distance)
        for e in graph.extra_edges()
    )
    return edges


def rec_mii(graph: DependenceGraph, machine: MachineConfig) -> int:
    """Recurrence-constrained lower bound on the initiation interval."""
    edges = _weighted_edges(graph, machine)
    if not any(dist > 0 for *_, dist in edges):
        # Acyclic graph (validation rejects zero-distance cycles): RecMII = 1.
        return 1
    lo, hi = 1, max(1, sum(delay for *_, delay, _ in edges))
    # Invariant: feasible(hi) is True, II below lo may be infeasible.
    if _has_positive_cycle(graph, edges, hi):
        # Pathological: even the largest sensible II fails; grow until it
        # works (cannot loop forever: weights decrease with II).
        while _has_positive_cycle(graph, edges, hi):
            hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_positive_cycle(graph, edges, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _has_positive_cycle(
    graph: DependenceGraph,
    edges: list[tuple[int, int, int, int]],
    ii: int,
) -> bool:
    """Bellman-Ford positive-cycle detection on weights delay - II*distance."""
    dist = {op.op_id: 0 for op in graph.operations}
    n = len(dist)
    for iteration in range(n):
        changed = False
        for src, dst, delay, distance in edges:
            weight = delay - ii * distance
            if dist[src] + weight > dist[dst]:
                dist[dst] = dist[src] + weight
                changed = True
        if not changed:
            return False
    return True


@dataclass(frozen=True)
class MiiReport:
    """Both lower bounds and their maximum."""

    res: int
    rec: int

    @property
    def mii(self) -> int:
        return max(self.res, self.rec)


def minimum_ii(graph: DependenceGraph, machine: MachineConfig) -> MiiReport:
    """Compute ResMII, RecMII and MII for a loop on a machine."""
    return MiiReport(res=res_mii(graph, machine), rec=rec_mii(graph, machine))


class MiiProbe:
    """Decides ``minimum_ii(graph, machine).mii <= ii`` without the search.

    ResMII and the weighted edge list are computed once; each
    :meth:`at_most` then costs at most one positive-cycle test.  That is
    exact: RecMII is the least II >= 1 without a positive cycle (1 for a
    graph with no loop-carried edge), and having none is monotone in II.
    So ``MII <= ii`` holds iff ``ii >= ResMII`` (which is at least 1) and
    the graph is acyclic or has no positive cycle at ``ii``.
    """

    def __init__(self, graph: DependenceGraph, machine: MachineConfig) -> None:
        self.graph = graph
        self.res = res_mii(graph, machine)
        self.edges = _weighted_edges(graph, machine)
        self.carried = any(dist > 0 for *_, dist in self.edges)

    def at_most(self, ii: int) -> bool:
        """Whether the graph's MII is at most ``ii``."""
        if ii < self.res:
            return False
        return not (
            self.carried and _has_positive_cycle(self.graph, self.edges, ii)
        )


__all__ = [
    "MiiProbe",
    "MiiReport",
    "edge_delay",
    "minimum_ii",
    "rec_mii",
    "res_mii",
]
