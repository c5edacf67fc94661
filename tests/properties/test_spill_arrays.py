"""Spill children's delta arrays against a fresh lowering of the spilled graph.

A :class:`~repro.kernel.batch.LoopChain` spill child never lowers a graph:
``batch._spill_arrays`` shallow-copies its parent's per-op lists and
rebuilds only the victim's out-list and its consumers' in-lists.  Whatever
that delta shares or drops, the result must be exactly what
:func:`~repro.kernel.loop.lower_loop` makes of
:func:`~repro.spill.spiller.spill_value`'s graph: the same ops, pools,
latencies, values, consumer adjacency and explicit edges, the same
out-lists (flow edges first, which the next delta relies on) and the same
in-edge multisets -- on every spill child of bench-grid and high-pressure
chains, and for every spillable value of graphs with a self-consuming
value, a consumer using the victim twice at one distance and an explicit
edge indistinguishable from a flow edge.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.bench import LATENCY
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.builder import LoopBuilder
from repro.ir.operation import OpType
from repro.kernel import modulo as kmodulo
from repro.kernel.batch import LoopChain, _replay, _spill_arrays, array_mii
from repro.kernel.loop import LoopArrays, lower_loop
from repro.machine.config import clustered_config, paper_config
from repro.spill.spiller import spill_value
from repro.workloads.suite import perfect_club_like

from strategies import high_pressure_graphs, machines

#: Spill children walked below each chain root.
DEPTH = 12


def explicit_edges(la: LoopArrays) -> list[tuple[int, int, int, int]]:
    """Explicit edges: each out-list's tail after its flow edges."""
    return [
        (src, dst, delay, dist)
        for src, outs in enumerate(la.out_edges)
        for dst, delay, dist in outs[len(la.cons[src]):]
    ]


def assert_same_arrays(child: LoopArrays, fresh: LoopArrays, context) -> None:
    for name in (
        "n", "ids", "index", "pool", "latency", "defines", "values", "cons",
        "carried",
    ):
        assert getattr(child, name) == getattr(fresh, name), (context, name)
    assert child.out_edges == fresh.out_edges, context
    assert explicit_edges(child) == explicit_edges(fresh), context
    for i in range(fresh.n):
        assert Counter(child.in_edges[i]) == Counter(fresh.in_edges[i]), (
            context,
            i,
        )


def spill_children(chain: LoopChain) -> list:
    """Spill children below the chain root, after the points walked it."""
    chain.evaluate(Model.UNIFIED, 8, SwapEstimator.MAXLIVE)
    children = []
    node = chain.root
    for _ in range(DEPTH):
        if node.victim is None:
            break
        node = node.spill_child()
        children.append(node)
    _replay([chain.root] + children)
    return children


def assert_chain_children_match(chain: LoopChain) -> None:
    for depth, node in enumerate(spill_children(chain), start=1):
        fresh = lower_loop(node.graph, chain.machine)
        assert_same_arrays(node.la, fresh, f"{chain.name} child {depth}")


class TestChainChildren:
    @pytest.mark.parametrize("index", range(4))
    def test_bench_grid_chains(self, index):
        machine = paper_config(LATENCY)
        for loop in perfect_club_like(40).loops[index::4]:
            assert_chain_children_match(LoopChain(loop.graph, machine))

    @given(high_pressure_graphs(), machines())
    @settings(max_examples=25, deadline=None)
    def test_high_pressure_chains(self, graph, machine):
        assert_chain_children_match(LoopChain(graph, machine))


def tricky_graph(machine):
    """Self-consumption, double uses and a flow-shaped explicit edge.

    ``x`` is used twice by ``sq`` at distance 0, twice by ``back`` at
    distance 1 and by ``mix`` at distances 2 and 0; the explicit edge
    ``x -> sq`` has the load's latency and distance 0, the same triple as
    one of ``sq``'s flow in-edges.  ``acc`` consumes itself at distance 1,
    and ``deep`` consumes ``acc`` at distances 1 and 3.
    """
    b = LoopBuilder("tricky")
    x = b.load("x")
    one, two, three = b.placeholder(), b.placeholder(), b.placeholder()
    sq = b.mul(x, x)
    back = b.mul(one, one)
    mix = b.add(two, x)
    acc_prev = b.placeholder()
    acc = b.add(acc_prev, sq)
    b.bind(acc_prev, acc, 1)
    deep = b.add(three, acc_prev)
    b.bind(one, x, 1)
    b.bind(two, x, 2)
    b.bind(three, acc, 3)
    b.order(x, sq, distance=0, min_delay=machine.latency_of(OpType.LOAD))
    total = b.add(b.add(back, mix), deep)
    b.store(total, "out")
    return b.build().graph


def assert_every_victim_matches(graph, machine) -> None:
    """``_spill_arrays`` of every spillable slot against a re-lowering."""
    la = lower_loop(graph, machine)
    kmodulo.heights(la, array_mii(la)[0])  # derive the relax order
    ma = la.ma
    for k, v in enumerate(la.values):
        if not la.cons[v]:
            continue
        child, n_loads = _spill_arrays(
            la,
            k,
            ma.index[machine.pool_for(OpType.STORE)],
            ma.index[machine.pool_for(OpType.LOAD)],
            machine.latency_of(OpType.STORE),
            machine.latency_of(OpType.LOAD),
        )
        spilled = spill_value(graph, la.ids[v])
        context = f"{graph.name} victim {la.ids[v]}"
        assert n_loads == len(set(la.cons[v])), context
        assert_same_arrays(child, lower_loop(spilled, machine), context)
        # The extended relax order is still sinks-first.
        order = child.relax_order
        assert sorted(order) == list(range(child.n)), context
        position = {op: r for r, op in enumerate(order)}
        for src, dst, _delay, dist in child.edges():
            if dist == 0:
                assert position[dst] < position[src], context


class TestEveryVictim:
    @pytest.mark.parametrize(
        "machine",
        [paper_config(3), paper_config(6), clustered_config(4, 3)],
        ids=["L3", "L6", "C4"],
    )
    def test_tricky_graph(self, machine):
        graph = tricky_graph(machine)
        la = lower_loop(graph, machine)
        x = la.values[0]
        # The shapes the docstring promises are really there.
        assert Counter(la.cons[x]) == Counter(
            {(1, 0): 2, (2, 1): 2, (3, 2): 1, (3, 0): 1}
        )
        acc = la.index[graph.operations[4].op_id]
        assert (acc, 1) in la.cons[acc]
        assert (x, 1, la.latency[x], 0) in explicit_edges(la)
        assert_every_victim_matches(graph, machine)

    def test_spilled_twice(self):
        # Spilling again: the candidates include spill loads, and the
        # first spill's memory edges carry over into every child.
        machine = paper_config(6)
        graph = tricky_graph(machine)
        once = spill_value(graph, graph.operations[0].op_id)
        assert_every_victim_matches(once, machine)

    @given(high_pressure_graphs(), machines())
    @settings(max_examples=25, deadline=None)
    def test_high_pressure_graphs(self, graph, machine):
        assert_every_victim_matches(graph, machine)
