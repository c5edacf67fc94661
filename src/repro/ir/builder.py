"""A small DSL for writing loop bodies as dataflow expressions.

Example -- DAXPY (``y(i) = y(i) + a * x(i)``)::

    b = LoopBuilder("daxpy")
    x = b.load("x")
    y = b.load("y")
    b.store(b.add(b.mul(b.inv("a"), x), y), "y")
    loop = b.build(trip_count=1000)

Loop-carried recurrences use placeholders.  A dot-product reduction::

    b = LoopBuilder("dot")
    acc = b.placeholder()                  # value of s from the previous iter
    s = b.add(acc, b.mul(b.load("x"), b.load("y")), name="s")
    b.bind(acc, s, distance=1)             # acc := s one iteration ago
    loop = b.build(trip_count=500)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.ddg import DependenceGraph, EdgeKind
from repro.ir.loop import Loop
from repro.ir.operation import (
    Immediate,
    InvariantRef,
    Operand,
    Operation,
    OpType,
    ValueRef,
)
from repro.ir.validate import validate_graph


@dataclass(frozen=True, slots=True)
class Value:
    """Handle to the value defined by an operation in the builder."""

    op_id: int
    builder_id: int


@dataclass(frozen=True, slots=True)
class Placeholder:
    """Forward reference to a value defined later (loop-carried)."""

    index: int
    builder_id: int


BuildOperand = Value | Placeholder | InvariantRef | Immediate | float | int | str


class BuilderError(ValueError):
    """Raised on misuse of the loop builder."""


class LoopBuilder:
    """Incrementally constructs a :class:`~repro.ir.loop.Loop`.

    Convenience coercions for operands: a ``str`` becomes a loop invariant,
    a ``float``/``int`` becomes an immediate.
    """

    _instances = 0

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._graph = DependenceGraph(name)
        self._placeholders: dict[int, tuple[int, int] | None] = {}
        self._placeholder_uses: dict[int, list[tuple[int, int]]] = {}
        LoopBuilder._instances += 1
        self._builder_id = LoopBuilder._instances
        self._built = False

    # ------------------------------------------------------------------
    # Operand handling
    # ------------------------------------------------------------------
    def _coerce(self, operand: BuildOperand) -> Operand | Placeholder:
        if isinstance(operand, Value):
            if operand.builder_id != self._builder_id:
                raise BuilderError("value belongs to a different builder")
            return ValueRef(operand.op_id, 0)
        if isinstance(operand, Placeholder):
            if operand.builder_id != self._builder_id:
                raise BuilderError("placeholder belongs to a different builder")
            return operand
        if isinstance(operand, (InvariantRef, Immediate)):
            return operand
        if isinstance(operand, str):
            return InvariantRef(operand)
        if isinstance(operand, (int, float)):
            return Immediate(float(operand))
        raise BuilderError(f"cannot use {operand!r} as an operand")

    def _emit(
        self,
        optype: OpType,
        operands: tuple[BuildOperand, ...],
        name: str | None,
        symbol: str | None = None,
    ) -> Operation:
        if self._built:
            raise BuilderError("builder already finalized")
        final: list[Operand] = []
        pending: list[tuple[int, int]] = []
        for operand in operands:
            kind = type(operand)
            # The common operands need no coercion: this builder's own
            # values, and invariants and immediates as given.
            if kind is Value and operand.builder_id == self._builder_id:
                final.append(ValueRef(operand.op_id, 0))
            elif kind is InvariantRef or kind is Immediate:
                final.append(operand)
            else:
                coerced = self._coerce(operand)
                if isinstance(coerced, Placeholder):
                    # Emitted as an immediate until bind() patches the
                    # recorded (op, position) use.
                    pending.append((coerced.index, len(final)))
                    final.append(Immediate(0.0))
                else:
                    final.append(coerced)
        op = self._graph.add_operation(optype, final, name, symbol)
        for index, pos in pending:
            self._placeholder_uses.setdefault(index, []).append((op.op_id, pos))
        return op

    # ------------------------------------------------------------------
    # Public DSL
    # ------------------------------------------------------------------
    def inv(self, name: str) -> InvariantRef:
        """A loop-invariant operand (held in the general register file)."""
        return InvariantRef(name)

    def const(self, value: float) -> Immediate:
        return Immediate(float(value))

    def load(self, symbol: str, name: str | None = None) -> Value:
        op = self._emit(OpType.LOAD, (), name, symbol=symbol)
        return Value(op.op_id, self._builder_id)

    def store(
        self, value: BuildOperand, symbol: str, name: str | None = None
    ) -> Operation:
        return self._emit(OpType.STORE, (value,), name, symbol=symbol)

    def add(self, a: BuildOperand, b: BuildOperand, name: str | None = None) -> Value:
        return Value(self._emit(OpType.FADD, (a, b), name).op_id, self._builder_id)

    def sub(self, a: BuildOperand, b: BuildOperand, name: str | None = None) -> Value:
        return Value(self._emit(OpType.FSUB, (a, b), name).op_id, self._builder_id)

    def mul(self, a: BuildOperand, b: BuildOperand, name: str | None = None) -> Value:
        return Value(self._emit(OpType.FMUL, (a, b), name).op_id, self._builder_id)

    def div(self, a: BuildOperand, b: BuildOperand, name: str | None = None) -> Value:
        return Value(self._emit(OpType.FDIV, (a, b), name).op_id, self._builder_id)

    def neg(self, a: BuildOperand, name: str | None = None) -> Value:
        return Value(self._emit(OpType.FNEG, (a,), name).op_id, self._builder_id)

    def conv(self, a: BuildOperand, name: str | None = None) -> Value:
        return Value(self._emit(OpType.FCONV, (a,), name).op_id, self._builder_id)

    def placeholder(self) -> Placeholder:
        """Create a forward reference for a loop-carried value."""
        index = len(self._placeholders)
        self._placeholders[index] = None
        return Placeholder(index, self._builder_id)

    def bind(self, ph: Placeholder, value: Value, distance: int = 1) -> None:
        """Resolve ``ph`` to ``value`` carried across ``distance`` iterations."""
        if ph.builder_id != self._builder_id:
            raise BuilderError("placeholder belongs to a different builder")
        if distance < 1:
            raise BuilderError("loop-carried distance must be >= 1")
        if self._placeholders.get(ph.index) is not None:
            raise BuilderError("placeholder already bound")
        self._placeholders[ph.index] = (value.op_id, distance)
        for op_id, pos in self._placeholder_uses.get(ph.index, []):
            op = self._graph.op(op_id)
            operands = list(op.operands)
            operands[pos] = ValueRef(value.op_id, distance)
            self._graph.set_operands(op_id, operands)

    def order(
        self,
        before: Operation | Value,
        after: Operation | Value,
        distance: int = 0,
        min_delay: int = 1,
        kind: EdgeKind = EdgeKind.MEMORY,
    ) -> None:
        """Add an explicit memory/ordering edge between two operations."""
        src = before.op_id if isinstance(before, (Value, Operation)) else before
        dst = after.op_id if isinstance(after, (Value, Operation)) else after
        self._graph.add_edge(src, dst, kind=kind, distance=distance,
                             min_delay=min_delay)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(
        self,
        trip_count: int = 100,
        source: str | None = None,
        validate: bool = True,
    ) -> Loop:
        """Finalize and return the loop.

        Raises :class:`BuilderError` if any placeholder is unbound, and runs
        :func:`repro.ir.validate.validate_graph` unless ``validate=False``.
        """
        unbound = [i for i, binding in self._placeholders.items() if binding is None]
        if unbound:
            raise BuilderError(f"unbound placeholders: {unbound}")
        self._built = True
        loop = Loop(
            name=self.name,
            graph=self._graph,
            trip_count=trip_count,
            source=source,
        )
        if validate:
            validate_graph(self._graph)
        return loop


__all__ = ["BuilderError", "LoopBuilder", "Placeholder", "Value"]
