"""Full-grid static verification: prove 100% of points, not a sample.

The dynamic gate (:mod:`repro.validate.sampling`) executes a seeded
sample because cycle-accurate simulation costs ``cycles x iterations``
per point.  The static proof is O(ops + edges) per point, so this module
simply walks the *entire* suite grid -- every loop under every register
file model -- and proves each evaluated point with
:func:`repro.check.invariants.check_evaluation`.  ``repro validate
--static`` and the report's check gate call this; the bench ``check``
scenario times it to document that 100% coverage is affordable.

Every point is proved on the evaluator that produces it for run, report
and serve: one :class:`~repro.kernel.batch.LoopChain` per loop serves all
of the loop's models, and each walk's exit node is materialized
(:meth:`~repro.kernel.batch.LoopChain.materialize`) into the schedule and
allocation the proof reads.  :func:`chain_claims` additionally holds the
chain's served summary numbers to those artifacts.  Knobs without an array
implementation fall back to the per-point
:func:`~repro.pipeline.pipelines.run_evaluation` under the engine's own
routing rule (:func:`repro.kernel.batch.supports`).

Layering: ``check`` sits below ``validate`` (validate imports check and
folds findings into its reports), so the model grid and suite defaults
are defined here rather than imported from the sampling module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.check.invariants import Finding, StaticCheck, check_evaluation
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.loop import Loop
from repro.kernel.batch import BatchEvaluation, LoopChain, supports
from repro.machine.config import MachineConfig, paper_config
from repro.pipeline.pipelines import run_evaluation
from repro.spill.spiller import LoopEvaluation
from repro.workloads.suite import DEFAULT_SEED, perfect_club_like

DEFAULT_LATENCY = 6

# Same grid the sampled dynamic gate draws from: the unconstrained
# baseline plus the paper's three register-file organizations.
CHECK_MODELS: tuple[tuple[Model, int | None], ...] = (
    (Model.IDEAL, None),
    (Model.UNIFIED, 32),
    (Model.PARTITIONED, 16),
    (Model.SWAPPED, 16),
)

ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class StaticValidation:
    """Outcome of statically proving a whole suite grid."""

    n_loops: int
    suite_seed: int
    latency: int
    models: tuple[tuple[Model, int | None], ...]
    points: tuple[StaticCheck, ...]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return all(point.ok for point in self.points)

    @property
    def failures(self) -> tuple[StaticCheck, ...]:
        return tuple(point for point in self.points if not point.ok)

    @property
    def findings_count(self) -> int:
        return sum(len(point.findings) for point in self.points)

    @property
    def points_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.points) / self.wall_seconds

    def describe(self) -> str:
        """One footer-sized line: what was proved and at what rate."""
        verdict = (
            "all proved"
            if self.ok
            else f"{len(self.failures)} point(s) disproved "
            f"({self.findings_count} finding(s))"
        )
        return (
            f"{self.n_loops} loops x {len(self.models)} models = "
            f"{len(self.points)} points statically verified, {verdict} "
            f"({self.points_per_second:.0f} points/sec)"
        )

    def format(self) -> str:
        """Full text form (the ``repro validate --static`` output)."""
        lines = [
            f"static check: {self.describe()}",
            f"suite: {self.n_loops} loops (seed {self.suite_seed}), "
            f"paper machine L{self.latency}",
            f"wall time: {self.wall_seconds:.1f}s",
        ]
        for point in self.failures:
            lines.append(point.describe())
        if self.ok:
            lines.append(
                "every point's schedule and allocation is proved legal"
            )
        return "\n".join(lines)


def chain_claims(
    summary: BatchEvaluation, evaluation: LoopEvaluation
) -> list[Finding]:
    """Findings for each served chain number its own artifacts contradict.

    The engine serves the chain's summary, while the proof reads the
    materialized schedule and allocation; a point is only proved when the
    two agree on every number the summary carries.
    """
    pairs = {
        "ii": (evaluation.ii, summary.ii),
        "memory_ops_per_iteration": (
            evaluation.memory_ops_per_iteration,
            summary.memory_ops,
        ),
        "spill_ops_per_iteration": (
            evaluation.spill_ops_per_iteration,
            summary.spill_ops,
        ),
        "registers_required": (
            evaluation.requirement.registers,
            summary.registers,
        ),
    }
    return [
        Finding(
            kind="claim",
            message=(
                f"the chain's claimed {name} differs from its materialized "
                f"schedule and allocation"
            ),
            expected=truth,
            observed=claim,
        )
        for name, (truth, claim) in pairs.items()
        if truth != claim
    ]


def point_chain(
    loop: Loop,
    machine: MachineConfig,
    victim_policy: str = "longest",
    pressure_strategy: str = "spill",
    ii_escalation: str = "increment",
) -> LoopChain | None:
    """The chain that evaluates ``loop``'s points, or ``None`` per point."""
    if not supports(victim_policy, pressure_strategy):
        return None
    return LoopChain(
        loop.graph,
        machine,
        victim_policy=victim_policy,
        pressure_strategy=pressure_strategy,
        ii_escalation=ii_escalation,
    )


def check_grid_point(
    loop: Loop,
    machine: MachineConfig,
    model: Model,
    register_budget: int | None,
    reproducer: dict | None = None,
    chain: LoopChain | None = None,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
    max_rounds: int = 200,
    victim_policy: str = "longest",
    pressure_strategy: str = "spill",
    ii_escalation: str = "increment",
) -> StaticCheck:
    """Evaluate one point on the production evaluator and prove it.

    ``chain`` lends the loop's :func:`point_chain` (built with the same
    knobs) so a grid shares one chain across the loop's points; without
    it one is built here, or the point falls back to ``run_evaluation``.
    """
    if chain is None:
        chain = point_chain(
            loop, machine, victim_policy, pressure_strategy, ii_escalation
        )
    if chain is None:
        evaluation = run_evaluation(
            loop,
            machine,
            model,
            register_budget,
            swap_estimator=swap_estimator,
            max_rounds=max_rounds,
            victim_policy=victim_policy,
            pressure_strategy=pressure_strategy,
            ii_escalation=ii_escalation,
        )
        return check_evaluation(evaluation, reproducer=reproducer)
    summary, evaluation = chain.materialize(
        loop, model, register_budget, swap_estimator, max_rounds
    )
    check = check_evaluation(evaluation, reproducer=reproducer)
    claims = chain_claims(summary, evaluation)
    if claims:
        check = replace(check, findings=check.findings + tuple(claims))
    return check


def run_static_validation(
    n_loops: int = 200,
    suite_seed: int = DEFAULT_SEED,
    latency: int = DEFAULT_LATENCY,
    models: Sequence[tuple[Model, int | None]] = CHECK_MODELS,
    loops: Iterable[Loop] | None = None,
    progress: ProgressFn | None = None,
) -> StaticValidation:
    """Statically verify every point of the suite grid.

    Unlike the sampled simulator gate this covers 100% of points.  Each
    loop's points share one chain, so a loop is scheduled once per chain
    state rather than once per point, and only exit nodes are
    materialized for the proofs.
    """
    start = time.perf_counter()
    suite = (
        list(loops)
        if loops is not None
        else list(perfect_club_like(n_loops, seed=suite_seed))
    )
    machine = paper_config(latency)
    grid = tuple(models)
    total = len(suite) * len(grid)
    points: list[StaticCheck] = []
    for index, loop in enumerate(suite):
        chain = point_chain(loop, machine)
        for model, budget in grid:
            reproducer = {
                "loop": {
                    "type": "loop",
                    "kind": "suite",
                    "index": index,
                    "n_loops": len(suite),
                    "seed": suite_seed,
                },
                "machine": {
                    "type": "machine",
                    "kind": "paper",
                    "latency": latency,
                },
                "model": model.value,
                "register_budget": budget,
            }
            points.append(
                check_grid_point(
                    loop,
                    machine,
                    model,
                    budget,
                    reproducer=reproducer,
                    chain=chain,
                )
            )
            if progress is not None:
                progress(len(points), total)
    return StaticValidation(
        n_loops=len(suite),
        suite_seed=suite_seed,
        latency=latency,
        models=grid,
        points=tuple(points),
        wall_seconds=time.perf_counter() - start,
    )


__all__ = [
    "CHECK_MODELS",
    "DEFAULT_LATENCY",
    "StaticValidation",
    "chain_claims",
    "check_grid_point",
    "point_chain",
    "run_static_validation",
]
