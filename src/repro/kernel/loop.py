"""Dependence graphs lowered to parallel integer arrays.

A :class:`LoopArrays` is built in one pass over the graph: operations in id
order become indices ``0..n-1``; operands become the consumer adjacency and
the flow-edge arrays simultaneously (the same traversal order as
``DependenceGraph.flow_edges`` / ``DependenceGraph.consumers``, so anything
materialized back to the dict world enumerates identically); explicit
memory/ordering edges are appended after the flow edges, matching
``DependenceGraph.edges``.

Lowering is memoized per ``(graph, machine)`` and guarded by the graph's
mutation counter: a graph rewritten in place (the loop builder binding a
placeholder, the spiller redirecting consumers) re-lowers on next use
instead of serving stale arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.ir.ddg import DependenceGraph
from repro.ir.operation import ValueRef
from repro.machine.config import MachineConfig
from repro.kernel.machine import MachineArrays, lower_machine


@dataclass
class LoopArrays:
    """Flat form of one dependence graph on one machine.

    Deliberately holds no reference to the source graph: the lowering
    cache is weakly keyed by the graph, and a back-reference here would
    keep every lowered graph alive for the process lifetime.
    """

    ma: MachineArrays
    n: int
    #: Index <-> op id (ids ascend with index, so id order == index order).
    ids: list[int]
    index: dict[int, int]
    #: Per op: pool index, result latency, whether it defines a loop variant.
    pool: list[int]
    latency: list[int]
    defines: list[bool]
    #: Indices of value-defining ops, in id order.
    values: list[int]
    #: Per op index: ``(consumer index, distance)`` per use, in the exact
    #: order ``DependenceGraph.consumers`` yields them.
    cons: list[list[tuple[int, int]]]
    #: All dependence edges (flow first, then explicit), as parallel arrays
    #: of (src index, dst index, min issue-to-issue delay, distance).
    e_src: list[int]
    e_dst: list[int]
    e_delay: list[int]
    e_dist: list[int]
    #: Per op index: incoming/outgoing ``(other, delay, distance)`` triples.
    in_edges: list[list[tuple[int, int, int]]]
    out_edges: list[list[tuple[int, int, int]]]
    #: Op indices sinks-first (a reverse topological order of the
    #: distance-0 subgraph): the order :func:`repro.kernel.modulo.heights`
    #: relaxes out-edges in.  Derived on first use and kept for every II
    #: tried on these arrays; a spill child extends its parent's.
    relax_order: list[int] | None = field(
        default=None, repr=False, compare=False
    )


def _build(graph: DependenceGraph, machine: MachineConfig) -> LoopArrays:
    ma = lower_machine(machine)
    ops = graph.operations
    n = len(ops)
    ids = [op.op_id for op in ops]
    index = {op_id: i for i, op_id in enumerate(ids)}
    pool = [ma.index[machine.pool_for(op)] for op in ops]
    latency = [machine.latency_of(op) for op in ops]
    defines = [op.defines_value for op in ops]
    values = [i for i in range(n) if defines[i]]

    cons: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    e_src: list[int] = []
    e_dst: list[int] = []
    e_delay: list[int] = []
    e_dist: list[int] = []
    for j, op in enumerate(ops):
        for operand in op.operands:
            if isinstance(operand, ValueRef):
                src = index[operand.producer]
                cons[src].append((j, operand.distance))
                e_src.append(src)
                e_dst.append(j)
                e_delay.append(latency[src])
                e_dist.append(operand.distance)
    for edge in graph.extra_edges():
        e_src.append(index[edge.src])
        e_dst.append(index[edge.dst])
        e_delay.append(edge.min_delay if edge.min_delay is not None else 1)
        e_dist.append(edge.distance)

    in_edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    out_edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for src, dst, delay, dist in zip(e_src, e_dst, e_delay, e_dist):
        in_edges[dst].append((src, delay, dist))
        out_edges[src].append((dst, delay, dist))

    return LoopArrays(
        ma=ma,
        n=n,
        ids=ids,
        index=index,
        pool=pool,
        latency=latency,
        defines=defines,
        values=values,
        cons=cons,
        e_src=e_src,
        e_dst=e_dst,
        e_delay=e_delay,
        e_dist=e_dist,
        in_edges=in_edges,
        out_edges=out_edges,
    )


_cache: "WeakKeyDictionary[DependenceGraph, dict]" = WeakKeyDictionary()


def lower_loop(graph: DependenceGraph, machine: MachineConfig) -> LoopArrays:
    """Lower ``graph`` for ``machine``; memoized, mutation-aware."""
    version = getattr(graph, "_version", 0)
    per_graph = _cache.get(graph)
    if per_graph is None:
        per_graph = {}
        _cache[graph] = per_graph
    entry = per_graph.get(machine)
    if entry is not None and entry[0] == version:
        return entry[1]
    lowered = _build(graph, machine)
    per_graph[machine] = (version, lowered)
    return lowered


#: ``producer op_id -> [(consumer op_id, distance), ...]``.
ConsumerMap = dict[int, list[tuple[int, int]]]


def consumer_map(graph: DependenceGraph) -> ConsumerMap:
    """``producer op_id -> [(consumer op_id, distance), ...]`` in one pass.

    Machine-independent flat form of ``DependenceGraph.consumers`` for every
    value at once: the same pairs in the same order, without the O(ops x
    operands) rescan per queried value.  Used by the spiller, the spill
    policies, lifetimes and value classification, which interrogate many
    values of the same graph.  Memoized per graph like :func:`lower_loop`
    (mutation-aware); callers must not mutate the returned map.
    """
    version = getattr(graph, "_version", 0)
    entry = _consumers.get(graph)
    if entry is not None and entry[0] == version:
        return entry[1]
    result: ConsumerMap = {
        op.op_id: [] for op in graph.operations if op.defines_value
    }
    for op in graph.operations:
        for operand in op.operands:
            if isinstance(operand, ValueRef):
                result[operand.producer].append((op.op_id, operand.distance))
    _consumers[graph] = (version, result)
    return result


_consumers: "WeakKeyDictionary[DependenceGraph, tuple[int, ConsumerMap]]" = (
    WeakKeyDictionary()
)


__all__ = ["LoopArrays", "consumer_map", "lower_loop"]
