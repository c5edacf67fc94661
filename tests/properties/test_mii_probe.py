"""The MII probe decides ``MII <= ii`` exactly as the MII search reports it.

The static proof (:func:`repro.check.invariants.check_mii`) proves a given
II and a claimed MII with :class:`repro.sched.mii.MiiProbe` instead of
re-running :func:`repro.sched.mii.minimum_ii`.  That is sound only if the
probe agrees with the search on both sides of the MII, on acyclic,
recurrence-bound and resource-bound graphs alike, with and without the
explicit memory edges spilling adds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import LoopBuilder
from repro.machine.config import paper_config, pxly
from repro.sched.mii import MiiProbe, minimum_ii
from repro.spill.spiller import spill_value, spillable_values
from repro.workloads.kernels import all_kernels

from strategies import dependence_graphs

MACHINES = [paper_config(3), paper_config(6), pxly(2, 3)]


def _assert_probe_agrees(graph, machine) -> None:
    mii = minimum_ii(graph, machine).mii
    probe = MiiProbe(graph, machine)
    assert [probe.at_most(ii) for ii in (mii - 1, mii, mii + 1)] == [
        False,
        True,
        True,
    ]
    assert not probe.at_most(0)


def _recurrence_bound():
    b = LoopBuilder("recurrence_bound")
    acc = b.placeholder()
    s = b.add(b.mul(acc, "c"), b.load("x"))
    b.bind(acc, s, distance=1)
    b.store(s, "y")
    return b.build().graph


def _resource_bound():
    b = LoopBuilder("resource_bound")
    v = b.load("x")
    for _ in range(7):
        v = b.mul(v, "c")
    b.store(v, "y")
    return b.build().graph


def _acyclic():
    b = LoopBuilder("acyclic")
    b.store(b.add(b.load("x"), b.load("y")), "z")
    return b.build().graph


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_constructed_shapes(machine):
    shapes = {
        "acyclic": _acyclic(),
        "recurrence": _recurrence_bound(),
        "resource": _resource_bound(),
    }
    bounds = {k: minimum_ii(g, machine) for k, g in shapes.items()}
    assert bounds["acyclic"].rec == 1
    assert bounds["recurrence"].rec > bounds["recurrence"].res
    assert bounds["resource"].res > bounds["resource"].rec
    for graph in shapes.values():
        _assert_probe_agrees(graph, machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_kernels_and_their_spilled_graphs(machine):
    for loop in all_kernels():
        graph = loop.graph
        _assert_probe_agrees(graph, machine)
        victims = spillable_values(graph)
        if victims:
            _assert_probe_agrees(spill_value(graph, victims[0]), machine)


@given(
    dependence_graphs(allow_recurrences=False),
    st.sampled_from(MACHINES),
)
@settings(max_examples=40, deadline=None)
def test_random_acyclic_graphs(graph, machine):
    assert minimum_ii(graph, machine).rec == 1
    _assert_probe_agrees(graph, machine)


@given(dependence_graphs(max_distance=3), st.sampled_from(MACHINES))
@settings(max_examples=80, deadline=None)
def test_random_graphs(graph, machine):
    _assert_probe_agrees(graph, machine)
