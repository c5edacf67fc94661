"""The validate surface through every front door: wire types, session,
experiment registry, CLI, and the report's sampled cross-check teeth."""

from __future__ import annotations

import dataclasses

import pytest

from repro.__main__ import main
from repro.api import (
    ExperimentRequest,
    LoopSpec,
    ReportRequest,
    ReportResponse,
    RequestValidationError,
    Session,
    ValidateRequest,
    ValidateResponse,
    request_from_dict,
)
from repro.regalloc.firstfit import AllocationResult, PlacedLifetime
from repro.report.build import generate_report
from repro.validate import allocation_for

SEAM = "repro.validate.differential.allocation_for"


def _flatten_shifts(evaluation):
    """The mutation the teeth tests inject: every shift forced to 0."""
    schedule, allocation = allocation_for(evaluation)
    if hasattr(allocation, "result"):  # unified
        placements = allocation.result.placements
        flat = {
            op_id: PlacedLifetime(placed.lifetime, 0, placed.ii)
            for op_id, placed in placements.items()
        }
        corrupted = dataclasses.replace(
            allocation,
            result=AllocationResult(allocation.result.ii, flat),
        )
    else:  # dual: placements live directly on the allocation
        flat = {
            op_id: PlacedLifetime(placed.lifetime, 0, placed.ii)
            for op_id, placed in allocation.placements.items()
        }
        corrupted = dataclasses.replace(allocation, placements=flat)
    return schedule, corrupted


class TestValidateWire:
    def test_round_trip(self):
        request = ValidateRequest(
            loop=LoopSpec(kind="kernel", name="daxpy"),
            model="swapped",
            register_budget=16,
            tiers=("batch", "0"),
        )
        data = request.to_dict()
        assert data["type"] == "validate"
        rebuilt = request_from_dict(data)
        assert rebuilt == request

    def test_bad_tier_rejected(self):
        for bad in ("2", "1"):  # "1": the retired per-point tier
            with pytest.raises(RequestValidationError):
                ValidateRequest(
                    loop=LoopSpec(kind="example"), tiers=("batch", bad)
                )

    def test_empty_tiers_rejected(self):
        with pytest.raises(RequestValidationError):
            ValidateRequest(loop=LoopSpec(kind="example"), tiers=())

    def test_bad_model_rejected(self):
        with pytest.raises(RequestValidationError):
            ValidateRequest(loop=LoopSpec(kind="example"), model="octuple")


class TestSessionValidate:
    def test_kernel_point_validates(self):
        with Session() as session:
            response = session.submit(
                ValidateRequest(
                    loop=LoopSpec(kind="kernel", name="daxpy"),
                    model="swapped",
                    register_budget=16,
                )
            )
        assert isinstance(response, ValidateResponse)
        assert response.ok, response.text
        assert response.mismatches == 0
        assert response.points == 2  # one per tier
        assert response.loop_name == "daxpy"

    def test_catches_injected_corruption(self, monkeypatch):
        monkeypatch.setattr(SEAM, _flatten_shifts)
        with Session() as session:
            response = session.validate(
                ValidateRequest(
                    loop=LoopSpec(kind="kernel", name="daxpy"),
                    model="unified",
                    register_budget=32,
                    tiers=("batch",),
                )
            )
        assert not response.ok
        assert response.mismatches > 0
        assert "reproduce:" in response.text

    def test_registry_experiment(self):
        with Session() as session:
            response = session.submit(
                ExperimentRequest(
                    name="validate", params={"loops": 20, "samples": 1}
                )
            )
        assert "execution-consistent" in response.text
        assert "indices" in response.text


class TestReportTeeth:
    def test_clean_report_runs_the_cross_check(self):
        result = generate_report(
            n_loops=12, out_dir=None, stamp=False, sim_samples=1
        )
        assert result.sim is not None
        assert result.sim.ok, result.sim.format()
        assert "sim cross-check" in result.text  # provenance footer row
        assert "sim cross-check" in result.summary()

    def test_injected_bug_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(SEAM, _flatten_shifts)
        result = generate_report(
            n_loops=12, out_dir=None, stamp=False, sim_samples=1
        )
        assert result.sim is not None
        assert not result.sim.ok
        assert result.ok is False  # the --check exit code goes non-zero
        assert any("SIM" in line for line in result.summary().splitlines())

    def test_skipped_by_default(self):
        result = generate_report(n_loops=12, out_dir=None, stamp=False)
        assert result.sim is None
        assert "sim cross-check" not in result.text

    def test_report_response_carries_sim_fields(self):
        with Session() as session:
            response = session.submit(
                ReportRequest(
                    n_loops=12, out_dir=None, check=True, sim_samples=1
                )
            )
        assert isinstance(response, ReportResponse)
        assert response.sim_points > 0
        assert response.sim_mismatches == 0
        assert response.sim_summary is not None
        assert "execution-consistent" in response.sim_summary


class TestCli:
    def test_validate_kernel(self, capsys):
        code = main(["validate", "--kernel", "daxpy", "--budget", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "daxpy" in out

    def test_validate_sampled(self, capsys):
        code = main(["validate", "--loops", "20", "--samples", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sim cross-check" in out

    def test_validate_catches_corruption(self, monkeypatch, capsys):
        monkeypatch.setattr(SEAM, _flatten_shifts)
        code = main(["validate", "--loops", "20", "--samples", "1"])
        assert code == 1
        assert "mismatch" in capsys.readouterr().out
