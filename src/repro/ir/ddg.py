"""Data-dependence graphs for innermost loops.

A :class:`DependenceGraph` holds the operations of one loop body plus the
dependences between them:

* **flow dependences** are implied by operands (:class:`~repro.ir.operation.ValueRef`)
  and connect a value's producer to each consumer, annotated with the
  dependence distance in iterations;
* **memory/ordering edges** are explicit extra edges (store -> load of the
  same location, store -> store ordering, recurrences through memory).

Edge *latencies* are a property of the target machine, not of the graph, so
they are resolved at scheduling time (see :mod:`repro.sched`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.ir.operation import (
    Immediate,
    InvariantRef,
    Operand,
    Operation,
    OpType,
    ValueRef,
)


class EdgeKind(enum.Enum):
    FLOW = "flow"  # register flow dependence (from operands)
    MEMORY = "memory"  # dependence through a memory location
    ORDER = "order"  # generic ordering constraint


@dataclass(frozen=True)
class Edge:
    """A scheduling dependence ``src -> dst``.

    ``dst`` must issue no earlier than ``latency(src) - ii * distance``
    cycles after ``src`` (flow edges) or ``min_delay - ii * distance``
    (explicit edges carrying their own delay).
    """

    src: int
    dst: int
    kind: EdgeKind
    distance: int = 0
    #: For non-flow edges: the minimum issue-to-issue delay in cycles.
    #: For flow edges this is ``None`` and the producer latency is used.
    min_delay: int | None = None
    #: For flow edges: which operand position of ``dst`` consumes the value.
    position: int | None = None


class GraphError(ValueError):
    """Raised for structurally invalid dependence graphs."""


class DependenceGraph:
    """Mutable DDG of one loop body.

    Operations are added through :meth:`add_operation`; flow edges are derived
    automatically from their operands.  Explicit memory/ordering edges are
    added with :meth:`add_edge`.

    Ids only ascend: :meth:`add_operation` issues each new operation the next
    id, and no operation is ever removed or re-inserted (:meth:`set_operands`
    replaces one in place, :meth:`copy` keeps the order).  So insertion order
    *is* id order, and :attr:`operations` returns the operations as inserted,
    without sorting.
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._ops: dict[int, Operation] = {}
        self._extra_edges: list[Edge] = []
        self._next_id = 0
        #: Mutation counter: bumped by every structural change so lowered
        #: array forms (:mod:`repro.kernel`) can detect staleness.
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(
        self,
        optype: OpType,
        operands: Iterable[Operand] = (),
        name: str | None = None,
        symbol: str | None = None,
        is_spill: bool = False,
    ) -> Operation:
        """Create an operation, assign it a fresh id and insert it."""
        op_id = self._next_id
        self._next_id += 1
        operands = tuple(operands)
        self._check_producers(operands)
        op = Operation(
            op_id, name or f"op{op_id}", optype, operands, symbol, is_spill
        )
        self._ops[op_id] = op
        self._version += 1
        return op

    def _check_producers(self, operands: tuple[Operand, ...]) -> None:
        """Every value operand names an existing, value-defining operation."""
        ops = self._ops
        for operand in operands:
            if isinstance(operand, ValueRef):
                producer = ops.get(operand.producer)
                if producer is None:
                    raise GraphError(
                        "operand references unknown operation "
                        f"{operand.producer}"
                    )
                if not producer.optype.defines_value:
                    raise GraphError(
                        f"operation {producer.name} defines no value"
                    )

    def set_operands(self, op_id: int, operands: Iterable[Operand]) -> None:
        """Replace the operand tuple of an existing operation.

        Used by the loop builder to resolve placeholders of loop-carried
        values and by the spiller to redirect consumers to reload operations.
        """
        operands = tuple(operands)
        self._check_producers(operands)
        old = self._ops[op_id]
        self._ops[op_id] = Operation(
            op_id, old.name, old.optype, operands, old.symbol, old.is_spill
        )
        self._version += 1

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: EdgeKind = EdgeKind.MEMORY,
        distance: int = 0,
        min_delay: int = 1,
    ) -> Edge:
        """Add an explicit (non-flow) dependence edge."""
        if src not in self._ops or dst not in self._ops:
            raise GraphError("edge endpoints must be existing operations")
        if kind is EdgeKind.FLOW:
            raise GraphError("flow edges are derived from operands")
        if distance < 0:
            raise GraphError("dependence distance must be non-negative")
        edge = Edge(src, dst, kind, distance, min_delay=min_delay)
        self._extra_edges.append(edge)
        self._version += 1
        return edge

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def operations(self) -> list[Operation]:
        """Operations in id order (which is insertion order)."""
        return list(self._ops.values())

    def op(self, op_id: int) -> Operation:
        return self._ops[op_id]

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def values(self) -> list[Operation]:
        """Operations that define a loop variant."""
        return [op for op in self.operations if op.defines_value]

    def flow_edges(self) -> list[Edge]:
        """Flow edges derived from operands, in deterministic order."""
        edges = []
        for op in self.operations:
            for pos, operand in enumerate(op.operands):
                if isinstance(operand, ValueRef):
                    edges.append(
                        Edge(
                            src=operand.producer,
                            dst=op.op_id,
                            kind=EdgeKind.FLOW,
                            distance=operand.distance,
                            position=pos,
                        )
                    )
        return edges

    def edges(self) -> list[Edge]:
        """All dependence edges (flow first, then explicit edges)."""
        return self.flow_edges() + list(self._extra_edges)

    def extra_edges(self) -> list[Edge]:
        return list(self._extra_edges)

    def consumers(self, op_id: int) -> list[tuple[Operation, int]]:
        """Consumers of the value defined by ``op_id``.

        Returns ``(consumer, distance)`` pairs; a consumer using the value
        twice appears once per use.
        """
        result = []
        for op in self.operations:
            for operand in op.operands:
                if isinstance(operand, ValueRef) and operand.producer == op_id:
                    result.append((op, operand.distance))
        return result

    def count(self, optype: OpType) -> int:
        return sum(1 for op in self.operations if op.optype is optype)

    def memory_operations(self) -> list[Operation]:
        return [op for op in self.operations if op.optype.is_memory]

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DependenceGraph":
        """Deep-enough copy: operations are immutable, containers are new."""
        clone = DependenceGraph(name or self.name)
        clone._ops = dict(self._ops)
        clone._extra_edges = list(self._extra_edges)
        clone._next_id = self._next_id
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DependenceGraph({self.name!r}, ops={len(self._ops)}, "
            f"edges={len(self.edges())})"
        )


__all__ = [
    "DependenceGraph",
    "Edge",
    "EdgeKind",
    "GraphError",
    "Immediate",
    "InvariantRef",
    "Operand",
    "Operation",
    "OpType",
    "ValueRef",
]
