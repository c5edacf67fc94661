"""The static proof runs on the chain that produced each point.

:func:`repro.check.coverage.check_grid_point` proves the
:class:`~repro.kernel.batch.LoopChain`'s materialized exit node, holds the
chain's served summary to those artifacts, and falls back to the
per-point pipeline under exactly the engine's routing rule.  The tests
here corrupt the materialized artifacts and claims directly and require
the proof to catch each lie with actionable coordinates.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import check_evaluation, coverage, run_static_validation
from repro.check.coverage import chain_claims, check_grid_point, point_chain
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.pipeline.pipelines import run_evaluation
from repro.pipeline.policies import SPILL_POLICIES, SpillPolicy, spillable_values
from repro.regalloc.firstfit import PlacedLifetime
from repro.sched.mii import edge_delay
from repro.sched.schedule import Schedule
from repro.validate import validate_point
from repro.workloads.kernels import all_kernels


@pytest.fixture(scope="module")
def machine():
    return paper_config(6)


@pytest.fixture(scope="module")
def loop():
    """The largest library kernel: spills several values at tight budgets."""
    return max(all_kernels(), key=lambda k: len(k.graph))


def _materialize(loop, machine, model, budget):
    chain = LoopChain(loop.graph, machine)
    return chain.materialize(loop, model, budget, SwapEstimator.MAXLIVE)


class TestChainProof:
    def test_spilled_point_is_proved_from_the_chain(self, loop, machine):
        summary, evaluation = _materialize(loop, machine, Model.SWAPPED, 6)
        assert summary.spilled_values > 0
        check = check_evaluation(evaluation)
        assert check.ok, check.describe()
        assert chain_claims(summary, evaluation) == []

    def test_corrupted_schedule_is_disproved(self, loop, machine):
        """A spill reload hoisted above its store: the materialized graph's
        memory edge is what the proof walks, no re-evaluation involved."""
        _summary, evaluation = _materialize(loop, machine, Model.UNIFIED, 8)
        schedule = evaluation.schedule
        graph = schedule.graph
        edge = next(
            e
            for e in graph.edges()
            if graph.op(e.src).is_spill and graph.op(e.dst).is_spill
        )
        delay = edge_delay(edge, graph, schedule.machine)
        earliest = (
            schedule.time_of(edge.src) + delay - schedule.ii * edge.distance
        )
        placements = dict(schedule.placements)
        placements[edge.dst] = dataclasses.replace(
            placements[edge.dst], time=earliest - 1
        )
        corrupt = Schedule(graph, schedule.machine, schedule.ii, placements)
        requirement = evaluation.requirement
        evaluation = dataclasses.replace(
            evaluation,
            schedule=corrupt,
            requirement=dataclasses.replace(
                requirement,
                unified=dataclasses.replace(
                    requirement.unified, schedule=corrupt
                ),
            ),
        )
        check = check_evaluation(evaluation)
        assert not check.ok
        findings = [f for f in check.findings if f.kind == "dependence"]
        assert findings, check.describe()
        assert findings[0].op is not None
        assert findings[0].cycle == earliest - 1

    def test_corrupted_allocation_is_disproved(self, loop, machine):
        """Every register shift forced to 0 in the swapped dual file."""
        _summary, evaluation = _materialize(loop, machine, Model.SWAPPED, 6)
        dual = evaluation.requirement.dual
        flattened = {
            op_id: PlacedLifetime(placed.lifetime, 0, placed.ii)
            for op_id, placed in dual.placements.items()
        }
        evaluation = dataclasses.replace(
            evaluation,
            requirement=dataclasses.replace(
                evaluation.requirement,
                dual=dataclasses.replace(dual, placements=flattened),
            ),
        )
        check = check_evaluation(evaluation)
        assert not check.ok
        overlaps = [f for f in check.findings if f.kind == "allocation"]
        assert overlaps, check.describe()
        assert overlaps[0].op is not None
        assert overlaps[0].cycle is not None
        assert overlaps[0].register is not None

    @pytest.mark.parametrize(
        "model, budget", ((Model.UNIFIED, 8), (Model.PARTITIONED, 6))
    )
    def test_register_claim_disagreement_is_a_finding(
        self, loop, machine, monkeypatch, model, budget
    ):
        """The chain claims one register fewer than its own allocation:
        the proof reports both numbers and never adopts either silently."""
        original = LoopChain._walk

        def understated(self, *args, **kwargs):
            summary, node = original(self, *args, **kwargs)
            return (
                dataclasses.replace(summary, registers=summary.registers - 1),
                node,
            )

        monkeypatch.setattr(LoopChain, "_walk", understated)
        check = check_grid_point(loop, machine, model, budget)
        assert not check.ok
        (finding,) = check.findings
        assert finding.kind == "claim"
        assert "registers_required" in finding.message
        assert finding.observed == finding.expected - 1

    def test_memory_op_claim_disagreement_is_a_finding(
        self, loop, machine
    ):
        summary, evaluation = _materialize(loop, machine, Model.UNIFIED, 8)
        inflated = dataclasses.replace(
            summary, memory_ops=summary.memory_ops + 1
        )
        (finding,) = chain_claims(inflated, evaluation)
        assert finding.kind == "claim"
        assert "memory_ops_per_iteration" in finding.message
        assert finding.expected == evaluation.memory_ops_per_iteration


class TestRouting:
    def test_grid_builds_one_chain_per_loop_and_no_pipeline(
        self, monkeypatch
    ):
        built = []
        original = coverage.LoopChain

        def counting(*args, **kwargs):
            built.append(args[0])
            return original(*args, **kwargs)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the proof grid re-ran the pipeline")

        monkeypatch.setattr(coverage, "LoopChain", counting)
        monkeypatch.setattr(coverage, "run_evaluation", forbidden)
        result = run_static_validation(n_loops=5)
        assert result.ok, result.format()
        assert len(built) == 5
        assert len(result.points) == 5 * len(coverage.CHECK_MODELS)

    def test_pipeline_reference_proves_the_same_point(self, machine):
        """The dict reference, called directly, is proved like the chain
        and agrees with it on every number the engine serves."""
        loop = all_kernels()[0]
        summary, _evaluation = _materialize(loop, machine, Model.SWAPPED, 8)
        reference = run_evaluation(loop, machine, Model.SWAPPED, 8)
        check = check_evaluation(reference)
        assert check.ok, check.describe()
        assert chain_claims(summary, reference) == []
        assert check_grid_point(loop, machine, Model.SWAPPED, 8).ok

    def test_custom_victim_policy_proves_through_the_fallback(
        self, loop, machine, monkeypatch
    ):
        class LowestId(SpillPolicy):
            name = "test-lowest-id"

            def select(self, schedule, lts):
                candidates = spillable_values(schedule.graph)
                return min(candidates) if candidates else None

        calls = []
        original = coverage.run_evaluation

        def counting(*args, **kwargs):
            calls.append(kwargs["victim_policy"])
            return original(*args, **kwargs)

        monkeypatch.setattr(coverage, "run_evaluation", counting)
        monkeypatch.setitem(SPILL_POLICIES, LowestId.name, LowestId())
        assert point_chain(loop, machine, victim_policy=LowestId.name) is None
        check = check_grid_point(
            loop, machine, Model.UNIFIED, 8, victim_policy=LowestId.name
        )
        assert check.ok, check.describe()
        assert calls == [LowestId.name]


class TestValidatePointProvesTheChain:
    def test_static_tier_reads_the_materialized_point(
        self, loop, machine, monkeypatch
    ):
        calls = []
        original = LoopChain.materialize

        def counting(self, *args, **kwargs):
            calls.append(args[1])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LoopChain, "materialize", counting)
        report = validate_point(loop, machine, Model.SWAPPED, 8, tiers=("0",))
        assert report.ok, report.describe()
        assert report.static is not None and report.static.ok
        assert calls == [Model.SWAPPED]

    def test_chain_claim_lie_fails_validation(
        self, loop, machine, monkeypatch
    ):
        original = LoopChain._walk

        def overstated(self, *args, **kwargs):
            summary, node = original(self, *args, **kwargs)
            return (
                dataclasses.replace(summary, registers=summary.registers + 1),
                node,
            )

        monkeypatch.setattr(LoopChain, "_walk", overstated)
        report = validate_point(loop, machine, Model.UNIFIED, 32)
        assert not report.ok
        kinds = {mismatch.kind for mismatch in report.mismatches}
        assert "static:claim" in kinds
        assert "tier" in kinds  # the summary comparison still runs
