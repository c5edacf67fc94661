"""Unit tests for graph validation."""

import pytest

from repro.ir.ddg import DependenceGraph, GraphError
from repro.ir.operation import Immediate, OpType, ValueRef
from repro.ir.validate import validate_graph


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        validate_graph(DependenceGraph())


def test_arity_mismatch_rejected():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    g.add_operation(OpType.FADD, (ValueRef(load.op_id),))  # needs 2 operands
    with pytest.raises(GraphError, match="takes 2 operands"):
        validate_graph(g)


def test_memory_op_without_symbol_rejected():
    g = DependenceGraph()
    g.add_operation(OpType.LOAD)
    with pytest.raises(GraphError, match="without a symbol"):
        validate_graph(g)


def test_self_dependence_distance_zero_rejected():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    add = g.add_operation(
        OpType.FADD, (ValueRef(load.op_id), ValueRef(load.op_id))
    )
    g.set_operands(add.op_id, (ValueRef(add.op_id, 0), ValueRef(load.op_id)))
    with pytest.raises(GraphError, match="self-dependence"):
        validate_graph(g)


def test_zero_distance_cycle_rejected():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    a = g.add_operation(OpType.FADD, (ValueRef(load.op_id), ValueRef(load.op_id)))
    c = g.add_operation(OpType.FADD, (ValueRef(a.op_id), ValueRef(load.op_id)))
    # Rewire a to consume c at distance 0: a -> c -> a cycle, distance 0.
    g.set_operands(a.op_id, (ValueRef(c.op_id, 0), ValueRef(load.op_id)))
    with pytest.raises(GraphError, match="cycle"):
        validate_graph(g)


def test_positive_distance_cycle_accepted():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    a = g.add_operation(OpType.FADD, (ValueRef(load.op_id), ValueRef(load.op_id)))
    g.set_operands(a.op_id, (ValueRef(a.op_id, 1), ValueRef(load.op_id)))
    g.add_operation(OpType.STORE, (ValueRef(a.op_id),), symbol="y")
    validate_graph(g)  # must not raise


def test_zero_distance_cycle_through_memory_edge_rejected():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    store = g.add_operation(OpType.STORE, (ValueRef(load.op_id),), symbol="y")
    g.add_edge(store.op_id, load.op_id, distance=0)
    with pytest.raises(GraphError, match="cycle"):
        validate_graph(g)


def test_valid_chain_accepted():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),))
    g.add_operation(OpType.STORE, (ValueRef(neg.op_id),), symbol="y")
    validate_graph(g)


# ----------------------------------------------------------------------
# Exact messages, and which error wins when a graph has several
# ----------------------------------------------------------------------
def _message(graph: DependenceGraph) -> str:
    with pytest.raises(GraphError) as info:
        validate_graph(graph)
    return str(info.value)


def test_messages_name_the_operation_and_the_fault():
    assert _message(DependenceGraph()) == "empty dependence graph"

    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    g.add_operation(OpType.FADD, (ValueRef(load.op_id),), name="A")
    assert _message(g) == "A: fadd takes 2 operands, got 1"

    g = DependenceGraph()
    g.add_operation(OpType.STORE, name="S", symbol="y")
    assert _message(g) == "S: store takes 1 operands, got 0"

    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),), name="N")
    g.set_operands(neg.op_id, (ValueRef(neg.op_id, 0),))
    assert _message(g) == "N: self-dependence with distance 0"

    g = DependenceGraph()
    g.add_operation(OpType.LOAD, name="L")
    assert _message(g) == "L: memory operation without a symbol"

    g = DependenceGraph("body")
    load = g.add_operation(OpType.LOAD, symbol="x")
    store = g.add_operation(OpType.STORE, (ValueRef(load.op_id),), symbol="x")
    g.add_edge(store.op_id, load.op_id, distance=0)
    assert _message(g) == "body: dependence cycle with zero total distance"


def test_arity_beats_an_earlier_missing_symbol():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, name="L")  # no symbol
    g.add_operation(OpType.FNEG, (ValueRef(load.op_id), Immediate(1.0)), name="N")
    assert _message(g) == "N: fneg takes 1 operands, got 2"


def test_self_dependence_beats_an_earlier_missing_symbol():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, name="L")  # no symbol
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),), name="N")
    g.set_operands(neg.op_id, (ValueRef(neg.op_id, 0),))
    assert _message(g) == "N: self-dependence with distance 0"


def test_arity_and_self_dependence_report_the_first_operation():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),), name="N")
    g.add_operation(OpType.FADD, (ValueRef(load.op_id),), name="A")
    g.set_operands(neg.op_id, (ValueRef(neg.op_id, 0),))
    assert _message(g) == "N: self-dependence with distance 0"

    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    g.add_operation(OpType.FADD, (ValueRef(load.op_id),), name="A")
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),), name="N")
    g.set_operands(neg.op_id, (ValueRef(neg.op_id, 0),))
    assert _message(g) == "A: fadd takes 2 operands, got 1"


def test_arity_is_checked_before_self_dependence_on_one_operation():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),), name="N")
    g.set_operands(neg.op_id, (ValueRef(neg.op_id, 0), ValueRef(load.op_id)))
    assert _message(g) == "N: fneg takes 1 operands, got 2"


def test_missing_symbol_beats_a_zero_distance_cycle():
    g = DependenceGraph("body")
    load = g.add_operation(OpType.LOAD, symbol="x")
    store = g.add_operation(OpType.STORE, (ValueRef(load.op_id),), symbol="x")
    g.add_edge(store.op_id, load.op_id, distance=0)
    g.add_operation(OpType.LOAD, name="L")  # no symbol
    assert _message(g) == "L: memory operation without a symbol"


def test_positive_distance_memory_edge_closes_no_cycle():
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    store = g.add_operation(OpType.STORE, (ValueRef(load.op_id),), symbol="x")
    g.add_edge(store.op_id, load.op_id, distance=1)
    validate_graph(g)  # must not raise


def test_descending_zero_distance_dependence_without_cycle_accepted():
    # op1 consumes op2, a later id, at distance 0 (as after a spill
    # rewires a consumer to its reload): ids are no topological order
    # here, yet the graph is acyclic.
    g = DependenceGraph()
    load = g.add_operation(OpType.LOAD, symbol="x")
    neg = g.add_operation(OpType.FNEG, (ValueRef(load.op_id),))
    late = g.add_operation(OpType.LOAD, symbol="y")
    g.set_operands(neg.op_id, (ValueRef(late.op_id, 0),))
    g.add_edge(late.op_id, load.op_id, distance=0)
    g.add_operation(OpType.STORE, (ValueRef(neg.op_id),), symbol="z")
    validate_graph(g)  # must not raise
