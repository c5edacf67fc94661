"""Cartesian scenario sweeps over the engine.

A :class:`SweepSpec` names a grid -- suite sizes x seeds x machine shapes
(latency, cluster count) x models x register-file sizes -- and compiles it
to a flat list of engine jobs with per-point metadata.  :func:`run_sweep`
executes the grid through an :class:`~repro.engine.pool.Engine` and folds
the results into per-configuration aggregates, so a sweep is useful on its
own and not just as raw points.

``NAMED_SWEEPS`` holds the grids users reach for first (these back the
``python -m repro sweep`` CLI); arbitrary grids are one ``SweepSpec(...)``
away -- see ``examples/sweep_models.py``.

Sweeps inherit the engine's grid batching for free: ``run_jobs`` groups
a sweep's cache misses per loop and walks each group's points over one
shared :class:`repro.kernel.batch.LoopChain` (schedule/lifetime artifacts
computed once per loop, not once per point).  The job list built here -- its
composition and order -- is unchanged by batching; only execution is
grouped, and results come back in build order regardless.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.models import Model
from repro.engine.cache import CacheStats
from repro.engine.jobs import (
    EVALUATE,
    PRESSURE,
    EvalJob,
    EvalResult,
    JobResult,
    PressureResult,
    evaluate_job,
    pressure_job,
)
from repro.engine.pool import Engine, ProgressFn
from repro.machine.config import MachineConfig, clustered_config, paper_config
from repro.pipeline.policies import (
    PRESSURE_STRATEGIES,
    SPILL_POLICIES,
    get_escalation,
    get_policy,
)
from repro.workloads.suite import DEFAULT_SEED, perfect_club_like


def _machine_for(latency: int, clusters: int) -> MachineConfig:
    """The sweep grid's machine: the paper's at 2 clusters, generalized else."""
    if clusters == 2:
        return paper_config(latency)
    return clustered_config(clusters, latency)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid.

    The kind picks the measurement: ``"pressure"`` ignores ``models`` and
    ``budgets`` (every pressure job measures all three models with no
    budget); ``"evaluate"`` runs the spill pipeline per (model, budget,
    victim policy) and always adds one Ideal baseline per machine so
    aggregates can normalize.

    ``victim_policies``/``pressure_strategy``/``ii_escalation`` name the
    pipeline's pluggable strategies (see :mod:`repro.pipeline.policies`);
    they ride in every job fingerprint, so sweeping them never collides
    with cached results of other configurations.
    """

    name: str = "custom"
    kind: str = EVALUATE
    n_loops: int = 40
    seeds: tuple[int, ...] = (DEFAULT_SEED,)
    latencies: tuple[int, ...] = (3, 6)
    cluster_counts: tuple[int, ...] = (2,)
    budgets: tuple[int, ...] = (32, 64)
    models: tuple[Model, ...] = (
        Model.UNIFIED,
        Model.PARTITIONED,
        Model.SWAPPED,
    )
    victim_policies: tuple[str, ...] = ("longest",)
    pressure_strategy: str = "spill"
    ii_escalation: str = "increment"
    include_kernels: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (PRESSURE, EVALUATE):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.n_loops < 1:
            raise ValueError("n_loops must be positive")
        if not self.victim_policies:
            raise ValueError("victim_policies must not be empty")
        for policy in self.victim_policies:
            get_policy(policy)
        get_escalation(self.ii_escalation)
        if self.pressure_strategy not in PRESSURE_STRATEGIES:
            raise ValueError(
                f"unknown pressure strategy {self.pressure_strategy!r}"
            )

    def machines(self) -> list[MachineConfig]:
        return [
            _machine_for(latency, clusters)
            for latency in self.latencies
            for clusters in self.cluster_counts
        ]

    def describe(self) -> str:
        models = ",".join(m.value for m in self.models)
        grid = (
            f"{len(self.seeds)} seed(s) x {self.n_loops} loops x "
            f"{len(self.machines())} machine(s)"
        )
        if self.kind == EVALUATE:
            grid += (
                f" x {len(self.budgets)} budget(s) x [{models}]"
                " + ideal baseline"
            )
            if len(self.victim_policies) > 1:
                grid += f" x policies [{','.join(self.victim_policies)}]"
        return f"sweep {self.name!r} ({self.kind}): {grid}"


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the job plus the coordinates that produced it."""

    job: EvalJob
    seed: int
    machine: str
    latency: int
    clusters: int
    model: str | None = None
    budget: int | None = None
    #: Victim policy of evaluate points (None for pressure/Ideal points).
    policy: str | None = None
    result: JobResult | None = None


@dataclass
class SweepOutcome:
    """Executed sweep: resolved points plus throughput and cache numbers."""

    spec: SweepSpec
    points: list[SweepPoint]
    elapsed: float
    cache_stats: dict = field(default_factory=dict)

    @property
    def points_per_second(self) -> float:
        return len(self.points) / self.elapsed if self.elapsed else 0.0


def build_points(spec: SweepSpec) -> list[SweepPoint]:
    """Compile the grid to jobs; suites materialize once per (size, seed)."""
    points: list[SweepPoint] = []
    for seed in spec.seeds:
        suite = perfect_club_like(
            spec.n_loops, seed=seed, include_kernels=spec.include_kernels
        )
        loops = list(suite)
        for latency in spec.latencies:
            for clusters in spec.cluster_counts:
                machine = _machine_for(latency, clusters)
                coords = dict(
                    # The suite records the seed it was generated from;
                    # labelling points with it keeps the two in lock-step.
                    seed=suite.seed,
                    machine=machine.name,
                    latency=latency,
                    clusters=clusters,
                )
                if spec.kind == PRESSURE:
                    points.extend(
                        SweepPoint(job=pressure_job(loop, machine), **coords)
                        for loop in loops
                    )
                    continue
                for loop in loops:
                    points.append(
                        SweepPoint(
                            job=evaluate_job(loop, machine, Model.IDEAL, None),
                            model=Model.IDEAL.value,
                            **coords,
                        )
                    )
                for budget in spec.budgets:
                    for model in spec.models:
                        if model is Model.IDEAL:
                            continue
                        for policy in spec.victim_policies:
                            points.extend(
                                SweepPoint(
                                    job=evaluate_job(
                                        loop,
                                        machine,
                                        model,
                                        budget,
                                        victim_policy=policy,
                                        pressure_strategy=(
                                            spec.pressure_strategy
                                        ),
                                        ii_escalation=spec.ii_escalation,
                                    ),
                                    model=model.value,
                                    budget=budget,
                                    policy=policy,
                                    **coords,
                                )
                                for loop in loops
                            )
    return points


def run_sweep(
    spec: SweepSpec,
    engine: Engine | None = None,
    echo_progress: bool = False,
) -> SweepOutcome:
    """Execute every point of ``spec`` through ``engine``."""
    from repro.engine.pool import serial_engine

    engine = engine or serial_engine()
    points = build_points(spec)
    previous_progress = engine.progress
    if echo_progress and engine.progress is None:
        engine.progress = stderr_progress(len(points))
    # Snapshot so the footer reports this sweep's cache traffic, not the
    # engine's whole lifetime (one engine often serves several sweeps).
    before = (
        replace(engine.cache.stats) if engine.cache is not None else None
    )
    start = time.perf_counter()
    try:
        results = engine.map([p.job for p in points])
    finally:
        engine.progress = previous_progress
    elapsed = time.perf_counter() - start
    resolved = [
        replace(point, result=result)
        for point, result in zip(points, results)
    ]
    stats = {}
    if engine.cache is not None:
        after = engine.cache.stats
        stats = {
            "hits": after.hits - before.hits,
            "misses": after.misses - before.misses,
            "stores": after.stores - before.stores,
            "corrupt": after.corrupt - before.corrupt,
            "shared": after.shared - before.shared,
        }
    return SweepOutcome(
        spec=spec, points=resolved, elapsed=elapsed, cache_stats=stats
    )


def stderr_progress(total: int, every: int = 50) -> ProgressFn:
    """A progress callback printing counters to stderr every ``every``."""

    def report(done: int, _total: int) -> None:
        if done % every == 0 or done == total:
            print(f"\r  {done}/{total} points", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

    return report


# ----------------------------------------------------------------------
# Aggregation + reporting
# ----------------------------------------------------------------------
def aggregate_rows(outcome: SweepOutcome) -> list[tuple]:
    """Fold points into per-configuration summary rows."""
    if outcome.spec.kind == PRESSURE:
        return _aggregate_pressure(outcome)
    return _aggregate_evaluate(outcome)


def _aggregate_pressure(outcome: SweepOutcome) -> list[tuple]:
    groups: dict[tuple, list[PressureResult]] = {}
    for point in outcome.points:
        groups.setdefault((point.seed, point.machine), []).append(point.result)
    rows = []
    for (seed, machine), results in sorted(groups.items()):
        n = len(results)
        mean = lambda xs: sum(xs) / n  # noqa: E731 - tiny local fold
        rows.append(
            (
                machine,
                seed,
                n,
                f"{mean([r.unified for r in results]):.1f}",
                f"{mean([r.partitioned for r in results]):.1f}",
                f"{mean([r.swapped for r in results]):.1f}",
                f"{100 * sum(r.partitioned <= 32 for r in results) / n:.1f}",
            )
        )
    return rows


def _aggregate_evaluate(outcome: SweepOutcome) -> list[tuple]:
    # The policy column appears only when the sweep actually varies it, so
    # single-policy reports keep their historical shape.
    with_policy = len(outcome.spec.victim_policies) > 1
    ideal_cycles: dict[tuple, int] = {}
    groups: dict[tuple, list[EvalResult]] = {}
    for point in outcome.points:
        base = (point.seed, point.machine)
        if point.model == Model.IDEAL.value:
            ideal_cycles[base] = (
                ideal_cycles.get(base, 0) + point.result.cycles
            )
        groups.setdefault(
            base + (point.model, point.budget, point.policy), []
        ).append(point.result)
    rows = []
    for (seed, machine, model, budget, policy), results in sorted(
        groups.items(),
        key=lambda kv: (
            kv[0][0],
            kv[0][1],
            kv[0][3] or 0,
            kv[0][2],
            kv[0][4] or "",
        ),
    ):
        cycles = sum(r.cycles for r in results)
        ideal = ideal_cycles.get((seed, machine), 0)
        row = [
            machine,
            seed,
            model,
            budget if budget is not None else "inf",
            f"{ideal / cycles:.3f}" if cycles and ideal else "1.000",
            sum(r.spilled_values for r in results),
            sum(1 for r in results if not r.fits),
        ]
        if with_policy:
            row.insert(4, policy if policy is not None else "-")
        rows.append(tuple(row))
    return rows


def outcome_headers(outcome: SweepOutcome) -> list[str]:
    """Column headers matching :func:`aggregate_rows` for this outcome.

    Shared by the text report and the API's structured
    :class:`~repro.api.types.SweepResponse`, so both always agree on the
    row shape (including the conditional policy column).
    """
    if outcome.spec.kind == PRESSURE:
        return [
            "machine",
            "seed",
            "loops",
            "mean unified",
            "mean partitioned",
            "mean swapped",
            "% part <= 32",
        ]
    headers = [
        "machine",
        "seed",
        "model",
        "regs",
        "perf vs ideal",
        "spilled values",
        "not fitting",
    ]
    if len(outcome.spec.victim_policies) > 1:
        headers.insert(4, "policy")
    return headers


def format_outcome(outcome: SweepOutcome) -> str:
    """Human report: aggregate table plus throughput/cache footer."""
    # Imported here: a sweep that is not printed never loads repro.analysis.
    from repro.analysis.reporting import format_table

    headers = outcome_headers(outcome)
    table = format_table(
        headers, aggregate_rows(outcome), title=outcome.spec.describe()
    )
    footer = (
        f"{len(outcome.points)} points in {outcome.elapsed:.1f}s "
        f"({outcome.points_per_second:.1f} points/s)"
    )
    if outcome.cache_stats:
        stats = CacheStats(
            hits=outcome.cache_stats.get("hits", 0),
            misses=outcome.cache_stats.get("misses", 0),
            stores=outcome.cache_stats.get("stores", 0),
            corrupt=outcome.cache_stats.get("corrupt", 0),
            shared=outcome.cache_stats.get("shared", 0),
        )
        footer += f"; cache: {stats.summary()}"
    return f"{table}\n\n{footer}"


# ----------------------------------------------------------------------
# Named sweeps (the CLI surface)
# ----------------------------------------------------------------------
NAMED_SWEEPS: dict[str, SweepSpec] = {
    # The Figures 6/7 measurement over both paper latencies.
    "pressure": SweepSpec(name="pressure", kind=PRESSURE),
    # The Figures 8/9 grid: models x budgets on the paper machine.
    "performance": SweepSpec(name="performance", kind=EVALUATE),
    # How performance scales with the register-file size at high pressure.
    "rf-size": SweepSpec(
        name="rf-size",
        kind=EVALUATE,
        latencies=(6,),
        budgets=(16, 24, 32, 48, 64, 96, 128),
    ),
    # Register pressure across cluster counts (Section 4 generalization).
    "clusters": SweepSpec(
        name="clusters",
        kind=PRESSURE,
        latencies=(3, 6),
        cluster_counts=(1, 2, 4),
    ),
    # Spill-victim policy ablation: the paper's highest-lifetime
    # heuristic against every registered alternative at the
    # highest-pressure configuration (L6/R32).
    "spill-policy": SweepSpec(
        name="spill-policy",
        kind=EVALUATE,
        latencies=(6,),
        budgets=(32,),
        victim_policies=tuple(SPILL_POLICIES),
    ),
}


def named_sweep(name: str, **overrides: object) -> SweepSpec:
    """A registry sweep with field overrides (``n_loops``, ``seeds``...)."""
    try:
        spec = NAMED_SWEEPS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_SWEEPS))
        raise ValueError(f"unknown sweep {name!r} (known: {known})") from None
    return replace(spec, **overrides) if overrides else spec


__all__ = [
    "NAMED_SWEEPS",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "aggregate_rows",
    "build_points",
    "format_outcome",
    "named_sweep",
    "outcome_headers",
    "run_sweep",
    "stderr_progress",
]
