"""The Swapped walk allocates only where the swap search's estimate fits.

Past the ``ceil(MaxLive / 2)`` bound, a Swapped walk reads the greedy swap
search's ``estimate_after`` (the worst subfile's MaxLive, a lower bound on
the dual allocation) before it pays for the allocation.  A node whose
estimate is over budget spills without allocating; the walk's numbers and
the materialized point stay those of the dict reference.
"""

from __future__ import annotations

import pytest

from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.kernel import dual as kdual
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.pipeline.pipelines import run_evaluation
from repro.workloads.suite import perfect_club_like

BUDGET = 16


@pytest.fixture(scope="module")
def machine():
    return paper_config(6)


@pytest.fixture(scope="module")
def loop():
    # 28 ops whose Swapped/16 walk spills 25 times, then raises the II 16
    # times: the longest walk of the suite's first 60 loops.
    return {lp.name: lp for lp in perfect_club_like(60, seed=1)}[
        "synthetic-0007"
    ]


def _walked_nodes(chain: LoopChain) -> list:
    """The nodes one walk measured, root to exit (spills, then raises)."""
    nodes, node = [], chain.root
    while node is not None:
        nodes.append(node)
        node = node._spill_child or node._esc_child
    return nodes


@pytest.mark.parametrize("estimator", list(SwapEstimator))
def test_allocation_only_where_the_estimate_fits(
    loop, machine, estimator, monkeypatch
):
    calls = []
    real = kdual.dual_allocation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kdual, "dual_allocation", counted)
    chain = LoopChain(loop.graph, machine)
    summary = chain.evaluate(Model.SWAPPED, BUDGET, estimator)
    nodes = _walked_nodes(chain)
    assert len(nodes) == summary.spilled_values + summary.ii_increases + 1

    allocated = [n for n in nodes if ("s", estimator) in n._exact]
    searched = [n for n in nodes if estimator in n._swap]
    # The search never allocates under MAXLIVE; under FIRSTFIT every
    # candidate it estimates is one more allocation.
    if estimator is SwapEstimator.MAXLIVE:
        assert len(calls) == len(allocated)
    for node in allocated:
        # Only where no victim is left must the walk measure a node
        # whatever its estimate: to compare II raises, and at the exit.
        if node.victim is not None:
            assert node.swap_trace(estimator)[5] <= BUDGET
    gated = [n for n in searched if n not in allocated]
    assert gated, "the walk must skip some over-budget allocations"
    for node in gated:
        assert node.lower_bound(Model.SWAPPED) <= BUDGET
        assert node.swap_trace(estimator)[5] > BUDGET
        # The estimate is a lower bound: the allocation it skipped would
        # not have fit either.
        assert node.requirement(Model.SWAPPED, estimator) > BUDGET


@pytest.mark.parametrize("estimator", list(SwapEstimator))
def test_walk_and_materialize_match_the_reference(loop, machine, estimator):
    reference = run_evaluation(
        loop, machine, Model.SWAPPED, BUDGET, swap_estimator=estimator
    )
    summary = LoopChain(loop.graph, machine).evaluate(
        Model.SWAPPED, BUDGET, estimator
    )
    walked, lifted = LoopChain(loop.graph, machine).materialize(
        loop, Model.SWAPPED, BUDGET, estimator
    )
    assert walked == summary
    expected = (
        reference.ii,
        reference.mii,
        reference.spilled_values,
        reference.ii_increases,
        reference.fits,
        reference.requirement.registers,
    )
    assert (
        summary.ii,
        summary.mii,
        summary.spilled_values,
        summary.ii_increases,
        summary.fits,
        summary.registers,
    ) == expected
    assert (
        lifted.ii,
        lifted.mii,
        lifted.spilled_values,
        lifted.ii_increases,
        lifted.fits,
        lifted.requirement.registers,
    ) == expected
    assert lifted.schedule.placements == reference.schedule.placements
