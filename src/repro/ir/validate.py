"""Structural validation of dependence graphs.

A graph is schedulable by modulo scheduling only if every dependence cycle
has a positive total distance (otherwise an operation would depend on itself
within the same iteration).  Validation also enforces the arity conventions
of the operation set.
"""

from __future__ import annotations

from repro.ir.ddg import DependenceGraph, GraphError
from repro.ir.operation import OpType, ValueRef

#: Expected operand counts per operation type.
_ARITY: dict[OpType, int] = {
    OpType.FADD: 2,
    OpType.FSUB: 2,
    OpType.FMUL: 2,
    OpType.FDIV: 2,
    OpType.FNEG: 1,
    OpType.FCONV: 1,
    OpType.LOAD: 0,
    OpType.STORE: 1,
}

#: ``(operand count, is memory)`` per operation type: one lookup per op.
_SHAPE: dict[OpType, tuple[int, bool]] = {
    optype: (arity, optype.is_memory) for optype, arity in _ARITY.items()
}


def validate_graph(graph: DependenceGraph) -> None:
    """Raise :class:`~repro.ir.ddg.GraphError` if ``graph`` is malformed.

    One pass over the operations checks arities and self-dependences and
    notes the first memory operation without a symbol.  The checks report
    in a fixed order, wherever the faults sit: arity or self-dependence
    (the first faulty operation), then a missing symbol, then a dependence
    cycle of zero total distance.
    """
    operations = graph.operations
    if not operations:
        raise GraphError("empty dependence graph")
    unnamed_memory = None
    # Whether some distance-0 dependence runs from a later id to an earlier
    # one; without one, id order is a topological order and no cycle exists.
    descends = False
    for op in operations:
        op_id = op.op_id
        operands = op.operands
        expected, is_memory = _SHAPE[op.optype]
        if len(operands) != expected:
            raise GraphError(
                f"{op.name}: {op.optype.value} takes {expected} operands, "
                f"got {len(operands)}"
            )
        for operand in operands:
            if isinstance(operand, ValueRef) and operand.distance == 0:
                if operand.producer == op_id:
                    raise GraphError(
                        f"{op.name}: self-dependence with distance 0"
                    )
                if operand.producer > op_id:
                    descends = True
        if is_memory and not op.symbol and unnamed_memory is None:
            unnamed_memory = op
    if unnamed_memory is not None:
        raise GraphError(
            f"{unnamed_memory.name}: memory operation without a symbol"
        )
    extra = [(e.src, e.dst) for e in graph.extra_edges() if e.distance == 0]
    if descends or any(src >= dst for src, dst in extra):
        _check_zero_distance_cycles(graph, extra)


def _check_zero_distance_cycles(
    graph: DependenceGraph, extra: list[tuple[int, int]]
) -> None:
    """Detect dependence cycles whose total distance is zero.

    The subgraph of distance-0 edges (flow edges from the operands, plus
    the explicit ``extra`` ones) must be acyclic; we check with an
    iterative topological sort (Kahn's algorithm).
    """
    succs: dict[int, list[int]] = {op.op_id: [] for op in graph.operations}
    indegree = dict.fromkeys(succs, 0)
    for op in graph.operations:
        for operand in op.operands:
            if isinstance(operand, ValueRef) and operand.distance == 0:
                succs[operand.producer].append(op.op_id)
                indegree[op.op_id] += 1
    for src, dst in extra:
        succs[src].append(dst)
        indegree[dst] += 1
    ready = [op_id for op_id, deg in indegree.items() if deg == 0]
    visited = 0
    while ready:
        node = ready.pop()
        visited += 1
        for succ in succs[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if visited != len(indegree):
        raise GraphError(
            f"{graph.name}: dependence cycle with zero total distance"
        )


__all__ = ["validate_graph"]
