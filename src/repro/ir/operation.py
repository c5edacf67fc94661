"""Operations of the loop intermediate representation.

The paper models floating-point inner loops as data-dependence graphs whose
nodes are floating-point operations (additions, subtractions, conversions,
multiplications, divisions) plus the loads and stores that move loop variants
between memory and the rotating register file.  Addresses and integer
bookkeeping live in the address processor of the decoupled architecture and
are therefore not represented (paper, Section 2).

Each operation that is not a store defines exactly one *loop variant* (a new
register instance per iteration).  Operands refer either to the value defined
by another operation (possibly in an earlier iteration, expressed with a
dependence *distance*), to a loop invariant (kept in the non-rotating general
register file and not counted, per Section 2), or to an immediate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpType(enum.Enum):
    """Semantic operation types, grouped by functional-unit class.

    The paper's adders execute additions, subtractions and int/float
    conversions; the multipliers execute multiplications and divisions with
    the same latency (Section 5.2).
    """

    FADD = "fadd"
    FSUB = "fsub"
    FCONV = "fconv"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    LOAD = "load"
    STORE = "store"

    @property
    def is_memory(self) -> bool:
        return self in (OpType.LOAD, OpType.STORE)

    @property
    def defines_value(self) -> bool:
        """Whether the operation creates a new register instance."""
        return self is not OpType.STORE


class FuClass(enum.Enum):
    """Functional-unit classes an operation can execute on."""

    ADDER = "adder"
    MULTIPLIER = "multiplier"
    MEMORY = "memory"


#: Map from semantic operation type to the functional-unit class it needs.
FU_CLASS_OF: dict[OpType, FuClass] = {
    OpType.FADD: FuClass.ADDER,
    OpType.FSUB: FuClass.ADDER,
    OpType.FCONV: FuClass.ADDER,
    OpType.FNEG: FuClass.ADDER,
    OpType.FMUL: FuClass.MULTIPLIER,
    OpType.FDIV: FuClass.MULTIPLIER,
    OpType.LOAD: FuClass.MEMORY,
    OpType.STORE: FuClass.MEMORY,
}


@dataclass(frozen=True, slots=True)
class ValueRef:
    """Operand referring to the value defined by operation ``producer``.

    ``distance`` is the dependence distance in iterations: a distance of 1
    means the operand is the value the producer defined one iteration ago
    (a loop-carried flow dependence).
    """

    producer: int
    distance: int = 0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError("dependence distance must be non-negative")


@dataclass(frozen=True, slots=True)
class InvariantRef:
    """Operand referring to a loop invariant (general register file)."""

    name: str


@dataclass(frozen=True, slots=True)
class Immediate:
    """Constant operand."""

    value: float


Operand = ValueRef | InvariantRef | Immediate


@dataclass(slots=True)
class Operation:
    """A node of the data-dependence graph.

    Attributes:
        op_id: Unique id within the graph.  Stable across graph copies.
        name: Human-readable label, e.g. ``"M3"`` in the paper's example.
        optype: Semantic operation type.
        operands: Inputs in positional order (order matters for FSUB/FDIV).
        symbol: Array symbol accessed by loads/stores, e.g. ``"x"``.
        is_spill: True for load/store operations introduced by the spiller.
    """

    op_id: int
    name: str
    optype: OpType
    operands: tuple[Operand, ...] = ()
    symbol: str | None = None
    is_spill: bool = False

    @property
    def fu_class(self) -> FuClass:
        return FU_CLASS_OF[self.optype]

    @property
    def defines_value(self) -> bool:
        return self.optype.defines_value

    def value_operands(self) -> list[ValueRef]:
        """Operands that are register values (the flow dependences)."""
        return [op for op in self.operands if isinstance(op, ValueRef)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operation({self.name}:{self.optype.value}@{self.op_id})"
