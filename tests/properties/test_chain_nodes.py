"""Every chain node's schedule-stage inputs against the dict reference.

A :class:`~repro.kernel.batch.LoopChain` spill child starts its MII search
from its parent's RecMII floor, and the kernel ``heights`` relaxes edges in
an order cached per lowered loop.  Neither shortcut may show: on every node
of chains over the bench grid and hypothesis high-pressure graphs, the
node's MII equals :func:`repro.sched.mii.minimum_ii` of the node's replayed
graph, its floor never exceeds that graph's RecMII, kernel heights equal
:func:`repro.sched.priority.heights` at the node's II and at its MII, and
the relaxation order (derived incrementally along the chain) stays a
reverse topological order of the distance-0 subgraph.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.bench import LATENCY, bench_grid
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.kernel import modulo as kmodulo
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.sched.mii import minimum_ii
from repro.sched.priority import heights
from repro.workloads.suite import perfect_club_like

from strategies import high_pressure_graphs, machines

#: Spill rounds walked past what the points themselves visit.
DEPTH = 10


def chain_nodes(chain: LoopChain, points) -> list:
    """The nodes the points' walks visit plus the spill chain below them."""
    for model, budget in points:
        chain.evaluate(model, budget, SwapEstimator.MAXLIVE)
    nodes = []
    node = chain.root
    for _ in range(DEPTH):
        nodes.append(node)
        if node._esc_child is not None:
            nodes.append(node._esc_child)
        if node.victim is None:
            break
        node = node.spill_child()
    return nodes


def assert_nodes_match_reference(chain: LoopChain, points) -> None:
    machine = chain.machine
    for depth, node in enumerate(chain_nodes(chain, points)):
        graph = node.graph
        report = minimum_ii(graph, machine)
        context = f"{chain.name} node {depth} (min_ii={node.min_ii})"
        assert node.mii == report.mii, context
        assert node._rec_floor <= report.rec, context
        la = node.la
        ids = la.ids
        for ii in sorted({node.mii, node.ii}):
            kernel = kmodulo.heights(la, ii)
            assert dict(zip(ids, kernel)) == heights(graph, machine, ii), (
                f"{context} II={ii}"
            )
        # The order a spill child inherits is still sinks-first.
        order = la.relax_order
        assert sorted(order) == list(range(la.n)), context
        position = {op: k for k, op in enumerate(order)}
        for src, dst, _delay, dist in la.edges():
            if dist == 0:
                assert position[dst] < position[src], context


class TestBenchGridChains:
    @pytest.mark.parametrize("index", range(4))
    def test_every_node(self, index):
        machine = paper_config(LATENCY)
        for loop in perfect_club_like(40).loops[index::4]:
            chain = LoopChain(loop.graph, machine)
            points = [
                (model, budget)
                for _loop, _mach, model, budget in bench_grid([loop], machine)
            ]
            assert_nodes_match_reference(chain, points)


class TestHighPressureChains:
    @given(high_pressure_graphs(), machines())
    @settings(max_examples=20, deadline=None)
    def test_every_node(self, graph, machine):
        chain = LoopChain(graph, machine)
        points = [(Model.IDEAL, None)] + [
            (model, 6)
            for model in (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED)
        ]
        assert_nodes_match_reference(chain, points)
