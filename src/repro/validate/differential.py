"""Simulator-grounded differential validation of evaluated loop points.

The analytical pipeline claims three things about every evaluated point:
an initiation interval, a register requirement per (sub)file, and a
memory-traffic density.  This module *executes* the point -- the final
(possibly swapped, possibly spilled) schedule and its allocation run
through :func:`repro.sim.executor.execute_kernel` against the golden
reference interpreter -- and cross-checks the simulator's observed
behaviour against every claim:

* **dataflow** -- every register read returns the reference value; a
  violated dependence or an overwritten live register is an execution
  proof that the schedule/allocation pair is broken;
* **II** -- the simulated steady state advances exactly one iteration per
  claimed II cycles;
* **occupancy** -- the peak number of simultaneously busy cells in each
  (sub)file never exceeds the register count the allocation claimed, and
  the claimed per-file maximum equals the requirement the pipeline
  reported;
* **traffic** -- observed memory-bus accesses equal
  ``memory_ops_per_iteration x iterations`` exactly (the integer form of
  :attr:`~repro.spill.spiller.LoopEvaluation.traffic_density`), and the
  per-cycle bus usage never exceeds the machine's memory bandwidth.

:func:`validate_point` additionally evaluates the point under both
evaluator tiers -- ``batch`` (the production
:class:`~repro.kernel.batch.LoopChain`, whose materialized evaluation is
executed) and ``0`` (the dict reference: the pass pipeline) -- and
requires the tiers to agree with each other *and* with execution.  The
``batch`` tier's summary must also equal the result the engine serves for
the point (:func:`repro.engine.jobs.execute_batch`); its static proof
reads the chain's own materialized schedule and allocation.

:func:`allocation_for` is deliberately a module-level seam: mutation
tests (and the ``report --check`` teeth test) monkeypatch it to inject a
corrupted allocation and assert the gate catches the bug.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.check.coverage import check_grid_point
from repro.check.invariants import StaticCheck
from repro.core.dualfile import DualAllocation
from repro.core.models import Model
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig
from repro.regalloc.allocation import UnifiedAllocation
from repro.sched.schedule import Schedule
from repro.sim.executor import SimulationError, SimulationReport, execute_kernel
from repro.sim.regfile import RegisterFileError
from repro.spill.spiller import LoopEvaluation

#: Evaluator tiers a point is validated under, production first:
#: ``"batch"`` (the chain, checked against the engine's served result too)
#: and ``"0"`` (the dict reference pipeline).
TIERS = ("batch", "0")


class ValidationError(RuntimeError):
    """An evaluated point has no allocation to execute."""


@dataclass(frozen=True)
class Mismatch:
    """One observed-vs-claimed divergence, with actionable coordinates."""

    kind: str  # "dataflow" | "register-file" | "ii" | "occupancy" |
    #           "traffic" | "bus" | "requirement" | "tier"
    message: str
    op: str | None = None
    cycle: int | None = None
    file: str | None = None
    register: int | None = None
    expected: object = None
    observed: object = None

    def describe(self) -> str:
        parts = [f"[{self.kind}] {self.message}"]
        where = []
        if self.op is not None:
            where.append(f"op={self.op}")
        if self.cycle is not None:
            where.append(f"cycle={self.cycle}")
        if self.file is not None:
            where.append(f"file={self.file}")
        if self.register is not None:
            where.append(f"register=r{self.register}")
        if self.expected is not None or self.observed is not None:
            where.append(
                f"expected={self.expected!r} observed={self.observed!r}"
            )
        if where:
            parts.append("  " + " ".join(where))
        return "\n".join(parts)


@dataclass(frozen=True)
class FileOccupancy:
    """Claimed vs observed register usage of one (sub)file."""

    name: str
    claimed: int
    peak: int
    touched: int


@dataclass(frozen=True)
class PointValidation:
    """Outcome of executing one evaluated point under one evaluator tier."""

    reproducer: dict
    tier: str
    model: str
    register_budget: int | None
    ii: int
    observed_ii: int | None
    iterations: int
    reads_checked: int
    memory_accesses: int
    files: tuple[FileOccupancy, ...]
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        head = (
            f"{self.model} budget={self.register_budget} tier={self.tier}: "
            f"II {self.ii}, {self.iterations} iterations, "
            f"{self.reads_checked} reads checked -- "
            + ("OK" if self.ok else f"{len(self.mismatches)} mismatch(es)")
        )
        lines = [head]
        for mismatch in self.mismatches:
            lines.append(mismatch.describe())
        if self.mismatches:
            lines.append(f"  reproduce: {self.reproducer}")
        return "\n".join(lines)


def static_mismatches(check: StaticCheck) -> tuple[Mismatch, ...]:
    """Fold a static proof's findings into the gate's mismatch shape."""
    return tuple(
        Mismatch(
            kind=f"static:{finding.kind}",
            message=finding.message,
            op=finding.op,
            cycle=finding.cycle,
            file=finding.file,
            register=finding.register,
            expected=finding.expected,
            observed=finding.observed,
        )
        for finding in check.findings
    )


@dataclass(frozen=True)
class ValidationReport:
    """All tier outcomes of one validated point.

    ``static`` carries the analytical proof of the same point when the
    caller asked for it (:func:`validate_point` ``static=True``, the
    default): the schedule/allocation invariants checked without
    execution, folded into :attr:`ok` and :attr:`mismatches` alongside
    the simulated tiers.
    """

    points: tuple[PointValidation, ...]
    static: StaticCheck | None = None

    @property
    def ok(self) -> bool:
        return all(point.ok for point in self.points) and (
            self.static is None or self.static.ok
        )

    @property
    def mismatches(self) -> tuple[Mismatch, ...]:
        folded = tuple(m for point in self.points for m in point.mismatches)
        if self.static is not None:
            folded += static_mismatches(self.static)
        return folded

    def describe(self) -> str:
        lines = [point.describe() for point in self.points]
        if self.static is not None:
            lines.append(self.static.describe())
        return "\n".join(lines)


def allocation_for(
    evaluation: LoopEvaluation,
) -> tuple[Schedule, UnifiedAllocation | DualAllocation]:
    """The schedule/allocation pair an evaluated point executes under.

    Dual models execute the allocation's *own* schedule (for Swapped that
    is the post-swap schedule, not the scheduler's).  Monkeypatch this to
    inject corrupted allocations in mutation tests.
    """
    requirement = evaluation.requirement
    if requirement.dual is not None:
        return requirement.dual.schedule, requirement.dual
    if requirement.unified is not None:
        return requirement.unified.schedule, requirement.unified
    raise ValidationError(
        f"evaluation of {evaluation.loop.name} under "
        f"{evaluation.model.value} carries no allocation to execute"
    )


def _file_claims(
    allocation: UnifiedAllocation | DualAllocation,
) -> dict[str, int]:
    """File name -> claimed register count, matching the executor's files."""
    if isinstance(allocation, DualAllocation):
        return {
            f"subfile{cluster}": allocation.file_allocation(
                cluster
            ).registers_required
            for cluster in range(allocation.n_clusters)
        }
    return {"unified": allocation.registers_required}


def default_iterations(schedule: Schedule) -> int:
    """Enough overlapped iterations to cover fill, steady state, and wrap."""
    return max(4, 2 * schedule.stage_count + 2)


def validate_evaluation(
    evaluation: LoopEvaluation,
    iterations: int | None = None,
    reproducer: dict | None = None,
    tier: str = "batch",
) -> PointValidation:
    """Execute one evaluated point and cross-check every analytical claim."""
    if reproducer is None:
        reproducer = reproducer_spec(
            evaluation.loop,
            evaluation.machine,
            evaluation.model,
            evaluation.register_budget,
        )
    reproducer = dict(reproducer, tier=tier)
    mismatches: list[Mismatch] = []
    schedule, allocation = allocation_for(evaluation)
    claims = _file_claims(allocation)
    if iterations is None:
        iterations = default_iterations(schedule)

    if schedule.ii != evaluation.ii:
        mismatches.append(
            Mismatch(
                kind="ii",
                message="allocation's schedule disagrees with the claimed II",
                expected=evaluation.ii,
                observed=schedule.ii,
            )
        )

    observed_ii: int | None = None
    reads_checked = 0
    memory_accesses = 0
    files: tuple[FileOccupancy, ...] = ()
    try:
        report = execute_kernel(schedule, allocation, iterations=iterations)
    except RegisterFileError as exc:
        mismatches.append(
            Mismatch(
                kind="register-file",
                message=str(exc),
                op=_op_name(schedule, exc.op_id),
                cycle=exc.cycle,
                file=exc.file,
                register=exc.register,
                expected=exc.expected,
                observed=exc.observed,
            )
        )
    except SimulationError as exc:
        mismatches.append(
            Mismatch(
                kind="dataflow",
                message=str(exc),
                op=exc.op,
                cycle=exc.cycle,
                expected=exc.expected,
                observed=exc.observed,
            )
        )
    else:
        observed_ii = (
            report.cycles // report.iterations if report.iterations else 0
        )
        reads_checked = report.reads_checked
        memory_accesses = report.memory_accesses
        files = tuple(
            FileOccupancy(
                name=name,
                claimed=claims.get(name, report.registers_claimed[name]),
                peak=stats.peak,
                touched=stats.touched,
            )
            for name, stats in sorted(report.occupancy.items())
        )
        mismatches.extend(_cross_checks(evaluation, report, files))

    return PointValidation(
        reproducer=reproducer,
        tier=tier,
        model=evaluation.model.value,
        register_budget=evaluation.register_budget,
        ii=evaluation.ii,
        observed_ii=observed_ii,
        iterations=iterations,
        reads_checked=reads_checked,
        memory_accesses=memory_accesses,
        files=files,
        mismatches=tuple(mismatches),
    )


def _op_name(schedule: Schedule, op_id: int | None) -> str | None:
    if op_id is None:
        return None
    try:
        return schedule.graph.op(op_id).name
    except (KeyError, IndexError):
        return str(op_id)


def _cross_checks(
    evaluation: LoopEvaluation,
    report: SimulationReport,
    files: tuple[FileOccupancy, ...],
) -> list[Mismatch]:
    """Observed-vs-analytical checks after a clean execution."""
    out: list[Mismatch] = []
    observed_ii = report.cycles // report.iterations
    if observed_ii != evaluation.ii:
        out.append(
            Mismatch(
                kind="ii",
                message="observed steady-state II differs from the claim",
                expected=evaluation.ii,
                observed=observed_ii,
            )
        )

    # Exact integer form of traffic_density: accesses/(cycles*bw) must
    # equal memory_ops/(II*bw), i.e. accesses == memory_ops x iterations.
    expected_accesses = (
        evaluation.memory_ops_per_iteration * report.iterations
    )
    if report.memory_accesses != expected_accesses:
        out.append(
            Mismatch(
                kind="traffic",
                message=(
                    "observed memory accesses disagree with "
                    "memory_ops_per_iteration x iterations"
                ),
                expected=expected_accesses,
                observed=report.memory_accesses,
            )
        )

    bandwidth = evaluation.machine.memory_bandwidth
    if report.bus_peak > bandwidth:
        out.append(
            Mismatch(
                kind="bus",
                message="per-cycle bus usage exceeds the memory bandwidth",
                expected=bandwidth,
                observed=report.bus_peak,
            )
        )

    for file_occ in files:
        if file_occ.peak > file_occ.claimed:
            out.append(
                Mismatch(
                    kind="occupancy",
                    message=(
                        "peak live registers exceed the allocation's claim"
                    ),
                    file=file_occ.name,
                    expected=file_occ.claimed,
                    observed=file_occ.peak,
                )
            )

    claimed_max = max((f.claimed for f in files), default=0)
    if claimed_max != evaluation.requirement.registers:
        out.append(
            Mismatch(
                kind="requirement",
                message=(
                    "per-file claims disagree with the reported requirement"
                ),
                expected=evaluation.requirement.registers,
                observed=claimed_max,
            )
        )

    budget = evaluation.register_budget
    if (
        evaluation.fits
        and budget is not None
        and evaluation.model is not Model.IDEAL
        and evaluation.requirement.registers > budget
    ):
        out.append(
            Mismatch(
                kind="requirement",
                message="point claims to fit but exceeds its budget",
                expected=budget,
                observed=evaluation.requirement.registers,
            )
        )
    return out


def reproducer_spec(
    loop: Loop,
    machine: MachineConfig,
    model: Model,
    register_budget: int | None,
    loop_spec: dict | None = None,
    machine_spec: dict | None = None,
) -> dict:
    """The minimal spec that replays one point (wire-shaped when possible).

    Callers that hold declarative :class:`repro.api.types.LoopSpec` /
    ``MachineSpec`` dicts pass them through; otherwise the loop/machine
    names identify the point well enough to rebuild it by hand.
    """
    return {
        "loop": loop_spec if loop_spec is not None else {"name": loop.name},
        "machine": (
            machine_spec
            if machine_spec is not None
            else {"name": machine.name}
        ),
        "model": model.value,
        "register_budget": register_budget,
    }


#: The per-point summary every evaluator must agree on.
_TIER_FIELDS = (
    "ii",
    "spilled_values",
    "ii_increases",
    "fits",
    "memory_ops_per_iteration",
)


def _tier_summary(evaluation: LoopEvaluation) -> dict:
    summary = {name: getattr(evaluation, name) for name in _TIER_FIELDS}
    summary["registers_required"] = evaluation.requirement.registers
    return summary


def _served_summary(
    loop: Loop,
    machine: MachineConfig,
    model: Model,
    register_budget: int | None,
    knobs: dict,
) -> dict:
    """The same summary, evaluated the way the engine does: one job
    through :func:`repro.engine.jobs.execute_batch` (one shared chain)."""
    from repro.engine import jobs

    job = jobs.evaluate_job(loop, machine, model, register_budget, **knobs)
    result = jobs.execute_batch([job])[0]
    return {
        name: getattr(result, name)
        for name in _TIER_FIELDS + ("registers_required",)
    }


def validate_point(
    loop: Loop,
    machine: MachineConfig,
    model: Model,
    register_budget: int | None = None,
    tiers: tuple[str, ...] = TIERS,
    iterations: int | None = None,
    reproducer: dict | None = None,
    static: bool = True,
    **knobs: Any,
) -> ValidationReport:
    """Evaluate one point under every evaluator tier and validate each.

    The ``"batch"`` tier executes the evaluation a one-loop
    :class:`~repro.kernel.batch.LoopChain` materializes
    (:func:`repro.spill.spiller.evaluate_loop`), and reports a ``tier``
    mismatch when its summary differs from the result the engine serves
    for the point (:func:`repro.engine.jobs.execute_batch` on one
    :func:`~repro.engine.jobs.evaluate_job`).  The ``"0"`` tier executes
    the pass pipeline's evaluation
    (:func:`repro.pipeline.pipelines.run_evaluation`, the dict
    reference).  Each tier executes *its own* allocation; on top of the
    per-tier simulator checks, the tiers' analytical summaries must be
    identical (a ``tier`` mismatch otherwise).  Knobs without an array
    implementation evaluate both tiers on the pipeline, as the engine
    does.  ``static=True`` (the default) additionally proves,
    analytically, the schedule/allocation of the evaluator that serves the
    point (:func:`repro.check.coverage.check_grid_point`) -- the O(ops)
    static tier that runs on 100% of points where simulation samples.
    Extra ``knobs`` (the policy knobs shared by ``evaluate_loop``,
    ``run_evaluation`` and :func:`~repro.engine.jobs.evaluate_job`) ride
    into all of them verbatim.
    """
    from repro.pipeline.pipelines import run_evaluation
    from repro.spill.spiller import evaluate_loop

    points: list[PointValidation] = []
    static_check = (
        check_grid_point(
            loop,
            machine,
            model,
            register_budget,
            reproducer=reproducer,
            **knobs,
        )
        if static
        else None
    )
    baseline: dict | None = None
    baseline_tier: str | None = None
    for tier in tiers:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        served: dict | None = None
        if tier == "batch":
            evaluation = evaluate_loop(
                loop, machine, model, register_budget, **knobs
            )
            served = _served_summary(
                loop, machine, model, register_budget, knobs
            )
        else:
            evaluation = run_evaluation(
                loop, machine, model, register_budget, **knobs
            )
        point = validate_evaluation(
            evaluation,
            iterations=iterations,
            reproducer=reproducer,
            tier=tier,
        )
        summary = _tier_summary(evaluation)
        divergences: list[Mismatch] = []
        if served is not None and served != summary:
            divergences.append(
                Mismatch(
                    kind="tier",
                    message=(
                        "the engine's served result diverges from the "
                        "chain's executed evaluation"
                    ),
                    expected=summary,
                    observed=served,
                )
            )
        if baseline is None:
            baseline, baseline_tier = summary, tier
        elif summary != baseline:
            divergences.append(
                Mismatch(
                    kind="tier",
                    message=(
                        f"tier {tier!r} diverges from tier "
                        f"{baseline_tier!r}"
                    ),
                    expected=baseline,
                    observed=summary,
                )
            )
        if divergences:
            point = replace(
                point, mismatches=point.mismatches + tuple(divergences)
            )
        points.append(point)
    return ValidationReport(points=tuple(points), static=static_check)


__all__ = [
    "FileOccupancy",
    "Mismatch",
    "PointValidation",
    "TIERS",
    "ValidationError",
    "ValidationReport",
    "allocation_for",
    "default_iterations",
    "reproducer_spec",
    "static_mismatches",
    "validate_evaluation",
    "validate_point",
]
