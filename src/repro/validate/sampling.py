"""Sampled end-to-end simulator cross-check (the ``report --check`` hook).

Validating every suite point under every model and tier would multiply the
report's cost by an order of magnitude, so the gate samples: one seeded
RNG (:func:`sample_indices`) picks ``samples`` loops out of the report's
suite, and each sampled loop is validated under the full model grid
(:data:`SAMPLE_MODELS`) across both evaluator tiers.  The seed is threaded
from the caller all the way through sample selection, so consecutive
``repro report --check`` runs validate the *same* points -- a mismatch is
reproducible, never a flake -- and the sampled set is pinned by tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.check.invariants import StaticCheck
from repro.core.models import Model
from repro.machine.config import paper_config
from repro.validate.differential import (
    TIERS,
    Mismatch,
    PointValidation,
    static_mismatches,
    validate_point,
)
from repro.workloads.suite import DEFAULT_SEED, perfect_club_like

#: Default number of sampled suite loops.
DEFAULT_SAMPLES = 6

#: Latency of the sampling machine: the paper's L6 configuration, whose
#: higher pressure exercises the spill path on part of the sample.
DEFAULT_LATENCY = 6

#: (model, register budget) grid each sampled loop is validated under.
#: The small dual budgets force spill code on a fair share of loops, so
#: the sample covers unified, dual, swapped, and spilled execution.
SAMPLE_MODELS: tuple[tuple[Model, int | None], ...] = (
    (Model.IDEAL, None),
    (Model.UNIFIED, 32),
    (Model.PARTITIONED, 16),
    (Model.SWAPPED, 16),
)


def sample_indices(
    n_loops: int, samples: int, seed: int
) -> tuple[int, ...]:
    """Deterministic sample of suite indices: one RNG, one seed, sorted."""
    if n_loops < 1:
        return ()
    count = max(0, min(samples, n_loops))
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(range(n_loops), count)))


@dataclass(frozen=True)
class SampledValidation:
    """Outcome of one sampled simulator cross-check."""

    n_loops: int
    seed: int
    suite_seed: int
    latency: int
    indices: tuple[int, ...]
    tiers: tuple[str, ...]
    models: tuple[str, ...]
    points: tuple[PointValidation, ...]
    wall_seconds: float
    #: Per-point static proofs (one per sampled point, tier-independent);
    #: empty when the caller disabled the static tier.
    static_points: tuple[StaticCheck, ...] = ()

    @property
    def ok(self) -> bool:
        return all(point.ok for point in self.points) and all(
            check.ok for check in self.static_points
        )

    @property
    def mismatches(self) -> tuple[Mismatch, ...]:
        folded = tuple(m for point in self.points for m in point.mismatches)
        for check in self.static_points:
            folded += static_mismatches(check)
        return folded

    def describe(self) -> str:
        """One footer-sized line: what ran and whether it agreed."""
        verdict = (
            "all execution-consistent"
            if self.ok
            else f"{len(self.mismatches)} mismatch(es)"
        )
        proofs = (
            f" + {len(self.static_points)} static proofs"
            if self.static_points
            else ""
        )
        return (
            f"{len(self.indices)} sampled loops x {len(self.models)} models "
            f"x {len(self.tiers)} tiers = {len(self.points)} executions"
            f"{proofs}, {verdict} (seed {self.seed})"
        )

    def format(self) -> str:
        """Full text form (the ``repro validate`` output)."""
        lines = [
            f"sim cross-check: {self.describe()}",
            f"suite: {self.n_loops} loops (seed {self.suite_seed}), "
            f"paper machine L{self.latency}, "
            f"indices {list(self.indices)}",
            f"wall time: {self.wall_seconds:.1f}s",
        ]
        for point in self.points:
            if not point.ok:
                lines.append(point.describe())
        for check in self.static_points:
            if not check.ok:
                lines.append(check.describe())
        if self.ok:
            lines.append("every sampled point matches its execution")
        return "\n".join(lines)


def run_sampled_validation(
    n_loops: int = 200,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    suite_seed: int = DEFAULT_SEED,
    latency: int = DEFAULT_LATENCY,
    tiers: tuple[str, ...] = TIERS,
    iterations: int | None = None,
    static: bool = True,
) -> SampledValidation:
    """Validate a seeded sample of suite points across models and tiers."""
    start = time.perf_counter()
    indices = sample_indices(n_loops, samples, seed)
    loops = list(perfect_club_like(n_loops, seed=suite_seed))
    machine = paper_config(latency)
    points: list[PointValidation] = []
    static_points: list[StaticCheck] = []
    for index in indices:
        loop = loops[index]
        for model, budget in SAMPLE_MODELS:
            reproducer = {
                "loop": {
                    "type": "loop",
                    "kind": "suite",
                    "index": index,
                    "n_loops": n_loops,
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
            report = validate_point(
                loop,
                machine,
                model,
                budget,
                tiers=tiers,
                iterations=iterations,
                reproducer=reproducer,
                static=static,
            )
            points.extend(report.points)
            if report.static is not None:
                static_points.append(report.static)
    return SampledValidation(
        n_loops=n_loops,
        seed=seed,
        suite_seed=suite_seed,
        latency=latency,
        indices=indices,
        tiers=tuple(tiers),
        models=tuple(model.value for model, _budget in SAMPLE_MODELS),
        points=tuple(points),
        wall_seconds=time.perf_counter() - start,
        static_points=tuple(static_points),
    )


__all__ = [
    "DEFAULT_LATENCY",
    "DEFAULT_SAMPLES",
    "SAMPLE_MODELS",
    "SampledValidation",
    "run_sampled_validation",
    "sample_indices",
]
