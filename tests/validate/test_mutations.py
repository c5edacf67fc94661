"""Mutation tests: the differential gate must catch injected bugs.

Most tests corrupt a *real* allocation through the
:func:`repro.validate.differential.allocation_for` seam -- the graph and
the analytical pipeline stay untouched, so the reference interpreter still
computes the true values -- and assert the validator reports the bug with
the right kind and actionable coordinates (op, cycle, register).  One
corrupts the engine's batch chain instead, which serves every
run/report/serve result and must agree with the executed pipeline.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.models import Model
from repro.ir.operation import OpType
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.pipeline.pipelines import run_evaluation
from repro.regalloc.firstfit import AllocationResult, PlacedLifetime, first_fit
from repro.validate import differential
from repro.validate.differential import allocation_for, validate_evaluation
from repro.workloads.kernels import all_kernels

SEAM = "repro.validate.differential.allocation_for"


@pytest.fixture(scope="module")
def machine():
    return paper_config(6)


@pytest.fixture(scope="module")
def loop():
    return {k.name: k for k in all_kernels()}["daxpy"]


def test_clean_allocation_validates(loop, machine):
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    point = validate_evaluation(evaluation)
    assert point.ok, point.describe()
    assert point.reads_checked > 0


def test_clobbered_live_register_is_caught(loop, machine, monkeypatch):
    """All shifts forced to 0: simultaneously live values collide in the
    same rotating cell, and the simulator sees the overwrite."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    schedule, allocation = allocation_for(evaluation)
    flattened = AllocationResult(
        allocation.result.ii,
        {
            op_id: PlacedLifetime(placed.lifetime, 0, placed.ii)
            for op_id, placed in allocation.result.placements.items()
        },
    )
    corrupted = dataclasses.replace(allocation, result=flattened)
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    point = validate_evaluation(evaluation)
    assert not point.ok
    mismatch = point.mismatches[0]
    assert mismatch.kind == "register-file"
    assert "overwritten" in mismatch.message
    assert mismatch.op is not None
    assert mismatch.cycle is not None
    assert mismatch.register is not None
    assert "reproduce:" in point.describe()


def test_dropped_spill_reload_is_caught(loop, machine, monkeypatch):
    """A spilled point whose reload placement is deleted: the consumer's
    read finds the reload's value allocated nowhere."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 6)
    assert evaluation.spilled_values > 0, "budget must force spills"
    schedule, allocation = allocation_for(evaluation)
    reloads = [
        op
        for op in schedule.graph.operations
        if op.is_spill and op.optype is OpType.LOAD
    ]
    assert reloads, "spilled schedule must carry sld ops"
    victim = reloads[0]
    placements = dict(allocation.result.placements)
    del placements[victim.op_id]
    corrupted = dataclasses.replace(
        allocation,
        result=AllocationResult(allocation.result.ii, placements),
    )
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    point = validate_evaluation(evaluation)
    assert not point.ok
    mismatch = point.mismatches[0]
    assert mismatch.kind in ("dataflow", "register-file")
    assert victim.name in (mismatch.op or "") or victim.name in mismatch.message
    assert mismatch.cycle is not None


def test_shrunk_lifetime_is_caught(loop, machine, monkeypatch):
    """The longest lifetime is truncated and the file repacked: first-fit
    reuses its cells early, so a late consumer reads an overwritten value."""
    evaluation = run_evaluation(loop, machine, Model.UNIFIED, 32)
    schedule, allocation = allocation_for(evaluation)
    lts = dict(allocation.lifetimes)
    longest = max(lts.values(), key=lambda lt: lt.end - lt.start)
    assert longest.end - longest.start > schedule.ii, (
        "test needs a lifetime long enough that truncation frees cells"
    )
    lts[longest.op_id] = dataclasses.replace(longest, end=longest.start + 1)
    corrupted = dataclasses.replace(
        allocation,
        lifetimes=lts,
        result=first_fit(lts.values(), schedule.ii),
    )
    monkeypatch.setattr(SEAM, lambda _ev: (schedule, corrupted))

    point = validate_evaluation(evaluation)
    assert not point.ok
    kinds = {mismatch.kind for mismatch in point.mismatches}
    assert kinds & {"register-file", "dataflow"}
    first = point.mismatches[0]
    assert first.op is not None and first.cycle is not None


def test_mutation_seam_is_module_level(monkeypatch):
    """The seam the teeth tests rely on must stay monkeypatchable."""
    sentinel = object()
    monkeypatch.setattr(SEAM, lambda _ev: sentinel)
    assert differential.allocation_for(None) is sentinel


def test_chain_divergence_is_caught(loop, machine, monkeypatch):
    """A chain that reports II + 1 is a ``tier`` mismatch on ``batch``."""
    original = LoopChain.evaluate

    def off_by_one(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        return dataclasses.replace(result, ii=result.ii + 1)

    monkeypatch.setattr(LoopChain, "evaluate", off_by_one)
    report = differential.validate_point(
        loop, machine, Model.UNIFIED, 32, static=False
    )
    assert not report.ok
    (mismatch,) = report.mismatches
    assert mismatch.kind == "tier"
    assert "chain" in mismatch.message
    assert mismatch.observed["ii"] == mismatch.expected["ii"] + 1
