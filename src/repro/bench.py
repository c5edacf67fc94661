"""``python -m repro bench`` -- the machine-readable performance snapshot.

Runs the hot-path benchmark scenarios over the Figure 8/9 evaluation grid
(:func:`bench_grid`) and emits one JSON document per run:
wall seconds, grid points, and points/second per scenario, plus the
hardware-independent ratio the CI regression gate checks.

Scenarios:

* ``cold_batch``   -- the full spill-evaluation grid through the engine
  (production): jobs grouped per loop, each group walking one shared
  :class:`repro.kernel.batch.LoopChain`, no result cache;
* ``cold_legacy``  -- the same grid on the dict reference: the Section 5.4
  loop (:func:`repro.pipeline.pipelines.run_evaluation`) per point, its
  schedule memo cleared first;
* ``warm``         -- ``cold_batch``'s jobs again, against an engine
  :class:`~repro.engine.cache.ResultCache` the cold pass primed (every
  point a cache hit, no chain walks);
* ``dispatch``     -- the same points as engine jobs through
  :func:`repro.engine.pool.run_jobs` (about four tasks of whole loop
  groups per worker, each task's results one message, when
  ``--workers`` > 1; the serial engine otherwise);
* ``simulate``     -- every grid point's final schedule/allocation, as
  :meth:`~repro.kernel.batch.LoopChain.materialize` lifts it, executed
  through the cycle-level simulator (the differential gate's hot path).
  Informational only: it has no baseline ratio and is never gated.
* ``check``        -- the static proof of every suite point under the four
  ``CHECK_MODELS``: one proving engine map
  (:func:`repro.check.coverage.run_static_validation`) on ``--workers``
  processes, recorded with that worker count.  Informational: no ratio.
* ``suite_build`` -- building the paper-sized ``perfect_club_like``
  suite (``SUITE_BUILD_LOOPS`` loops), which every grid, proof and serve
  suite request pays before anything is scheduled; reported as loops
  built per second.  Informational: no ratio, never gated.
* ``serve_single`` -- the mixed serve workload (the bench grid at a
  fixed ``SERVE_LOOPS`` suite size, twice, shuffled) through one
  ``repro serve`` subprocess on an ephemeral port, driven by
  persistent-connection clients (:mod:`repro.api.loadtest`).
  Informational: no ratio is derived from it.

The regression gate (``--baseline`` / ``--max-regression``) compares the
hardware-independent ratios -- ``kernel_speedup`` (``cold_legacy /
cold_batch``) and ``warm_speedup`` (``cold_batch / warm``) -- not wall
seconds: wall time varies with the host, while the speedup of
the same grid on the same interpreter is a property of the code.  Ratios
the baseline file predates are reported as notes, never spurious
failures.  See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.loop import Loop
from repro.machine.config import MachineConfig
from repro.engine.cache import ResultCache
from repro.engine.jobs import evaluate_job
from repro.engine.pool import run_jobs
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.workloads.suite import DEFAULT_SUITE_SIZE, perfect_club_like

#: The canonical Figure 8/9 bench grid -- the single definition shared by
#: this driver, the tests and ``perfbench``, so the CI-gated ratio and the
#: documented workload cannot drift apart.
LATENCY = 6
BUDGETS = (32, 64)
MODELS = (Model.UNIFIED, Model.PARTITIONED, Model.SWAPPED)

#: Scenario registry order is the report order.
SCENARIOS = (
    "cold_batch",
    "cold_legacy",
    "warm",
    "dispatch",
    "simulate",
    "check",
    "serve_single",
    "suite_build",
)

#: Clients driving the serve scenario: enough concurrency that requests
#: queue on the session lock, small enough for a 1-core CI host.
SERVE_CLIENTS = 32

#: Suite size of the serve workload, fixed regardless of ``--loops``.
#: The serve scenario measures the *serving stack* -- HTTP dispatch,
#: admission, the chain memo, the shared cache -- under a standardized
#: request mix, so its numbers stay comparable between the CI snapshot
#: and the full BENCH.json run.  Scaling grid compute is what
#: the cold/warm scenarios are for; folding it in here would just drown
#: the serving overhead being measured.
SERVE_LOOPS = 24

#: Suite size of the suite-build scenario, fixed regardless of ``--loops``:
#: the paper's ~800 inner loops.
SUITE_BUILD_LOOPS = DEFAULT_SUITE_SIZE

def bench_grid(
    loops: Sequence[Loop], machine: MachineConfig
) -> Iterator[tuple[Loop, MachineConfig, Model, int | None]]:
    """One Ideal point plus models x budgets per loop, in driver order."""
    for loop in loops:
        yield loop, machine, Model.IDEAL, None
        for budget in BUDGETS:
            for model in MODELS:
                yield loop, machine, model, budget


def _run_grid(loops: Sequence[Loop], machine: MachineConfig) -> int:
    """The grid on the dict reference, from a cold memo."""
    # Imported here: the reference stays off the bench module's import
    # graph, which the perfbench grid workload loads.
    from repro.pipeline.pipelines import clear_memo, run_evaluation

    clear_memo()
    points = 0
    for loop, mach, model, budget in bench_grid(loops, machine):
        run_evaluation(loop, mach, model, budget)
        points += 1
    return points


def _timed(fn: Callable[[], int], repeats: int) -> tuple[float, int]:
    """Best-of-``repeats`` wall time: the minimum is the least noisy
    estimate of the code's cost on a shared host (CI runners included)."""
    best = None
    points = 0
    for _ in range(repeats):
        start = time.perf_counter()
        points = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, points


def run_bench(
    n_loops: int = 32,
    workers: int = 0,
    scenarios: tuple[str, ...] = SCENARIOS,
    repeats: int = 1,
) -> dict:
    """Run the selected scenarios and return the JSON-ready snapshot."""
    unknown = set(scenarios) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown bench scenario(s): {sorted(unknown)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    machine = paper_config(LATENCY)
    loops = list(perfect_club_like(n_loops))
    results: dict[str, dict] = {}

    def record(name: str, seconds: float, points: int) -> None:
        results[name] = {
            "seconds": round(seconds, 6),
            "points": points,
            "points_per_sec": round(points / seconds, 1) if seconds else 0.0,
        }

    jobs = [
        evaluate_job(loop, mach, model, budget)
        for loop, mach, model, budget in bench_grid(loops, machine)
    ]
    if "cold_batch" in scenarios:
        seconds, points = _timed(
            lambda: len(run_jobs(jobs, workers=0, cache=None)), repeats
        )
        record("cold_batch", seconds, points)
    if "cold_legacy" in scenarios:
        seconds, points = _timed(
            lambda: _run_grid(loops, machine), repeats
        )
        record("cold_legacy", seconds, points)
    if "warm" in scenarios:
        cache = ResultCache(directory=None)
        run_jobs(jobs, workers=0, cache=cache)  # prime
        seconds, points = _timed(
            lambda: len(run_jobs(jobs, workers=0, cache=cache)), repeats
        )
        record("warm", seconds, points)
    if "simulate" in scenarios:
        # The differential gate's hot path: execute every grid point's
        # final schedule/allocation cycle-by-cycle.  The chains are walked
        # and materialized outside the timed region, so the measurement is
        # the simulator, not the (already covered) evaluator.  Imported
        # lazily: repro.validate must stay off the bench module's import
        # graph.
        from repro.sim.executor import execute_kernel
        from repro.validate.differential import allocation_for

        evaluations = []
        for loop in loops:
            chain = LoopChain(loop.graph, machine)
            for _loop, _mach, model, budget in bench_grid([loop], machine):
                evaluations.append(
                    chain.materialize(
                        loop, model, budget, SwapEstimator.MAXLIVE
                    )[1]
                )

        def _simulate() -> int:
            for evaluation in evaluations:
                schedule, allocation = allocation_for(evaluation)
                execute_kernel(schedule, allocation, iterations=8)
            return len(evaluations)

        seconds, points = _timed(_simulate, repeats)
        record("simulate", seconds, points)
    if "check" in scenarios:
        # The static gate's hot path: prove every suite point's schedule
        # and allocation analytically, cold (fresh chains and a fresh
        # pool of ``workers`` per repeat) -- this is the cost of running
        # the prover on 100% of the grid, the number that justifies
        # static-always where sim samples.
        # Imported lazily: repro.check rides the validate layering.
        from repro.check import run_static_validation
        from repro.engine.pool import Engine

        def _check() -> int:
            with Engine(workers=workers, cache=None) as engine:
                result = run_static_validation(
                    loops=loops, latency=LATENCY, engine=engine
                )
            if not result.ok:
                raise RuntimeError(
                    f"check bench disproved points: {result.format()}"
                )
            return len(result.points)

        seconds, points = _timed(_check, repeats)
        record("check", seconds, points)
        results["check"]["workers"] = workers
    if "dispatch" in scenarios:
        seconds, points = _timed(
            lambda: len(run_jobs(jobs, workers=workers, cache=None)),
            repeats,
        )
        results["dispatch"] = {
            "seconds": round(seconds, 6),
            "points": points,
            "points_per_sec": round(points / seconds, 1) if seconds else 0.0,
            "workers": workers,
        }

    if "serve_single" in scenarios:
        # Lazy import: the load harness spawns subprocess servers and has
        # no business on the import graph of a plain bench run.
        from repro.api.loadtest import (
            LoadStats,
            ServerProcess,
            build_workload,
            run_load,
        )

        bodies = build_workload("mixed", SERVE_LOOPS)

        def _load_run() -> LoadStats:
            """One load run against a fresh server and cache."""
            with ServerProcess() as server:
                stats = run_load(server.url, bodies, clients=SERVE_CLIENTS)
                clean = server.shutdown()
            if stats.errors or not clean:
                raise RuntimeError(
                    f"serve bench failed: {stats.errors} error(s), "
                    f"clean_exit={clean}: {stats.error_samples[:3]}"
                )
            return stats

        best = min(
            (_load_run() for _ in range(repeats)),
            key=lambda stats: stats.elapsed,
        )
        results["serve_single"] = {
            "seconds": round(best.elapsed, 4),
            "points": best.requests,
            "points_per_sec": round(best.points_per_sec, 1),
            "clients": SERVE_CLIENTS,
            "loops": SERVE_LOOPS,
            "p50_ms": round(best.p50_ms, 2),
            "p99_ms": round(best.p99_ms, 2),
        }

    if "suite_build" in scenarios:
        seconds, built = _timed(
            lambda: len(perfect_club_like(SUITE_BUILD_LOOPS)), repeats
        )
        results["suite_build"] = {
            "seconds": round(seconds, 6),
            "loops": built,
            "loops_per_sec": round(built / seconds, 1) if seconds else 0.0,
        }

    # Lazy import: repro.report pulls in the experiment drivers, which a
    # bench run needs only for this one provenance string.
    from repro.report.provenance import git_revision

    snapshot = {
        "meta": {
            "loops": n_loops,
            "repeats": repeats,
            "grid": {
                "machine": machine.name,
                "budgets": list(BUDGETS),
                "models": ["ideal"] + [m.value for m in MODELS],
            },
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git": git_revision(),
        },
        "scenarios": results,
        "ratios": {},
    }
    for ratio, numerator, denominator in (
        ("kernel_speedup", "cold_legacy", "cold_batch"),
        ("warm_speedup", "cold_batch", "warm"),
    ):
        if numerator in results and denominator in results:
            below = results[denominator]["seconds"]
            snapshot["ratios"][ratio] = (
                round(results[numerator]["seconds"] / below, 2)
                if below
                else 0.0
            )
    return snapshot


def format_snapshot(snapshot: dict) -> str:
    """Human-readable view of one snapshot."""
    # Imported here: the bench harness runs without repro.analysis.
    from repro.analysis.reporting import format_table

    rows = []
    for name, data in snapshot["scenarios"].items():
        label = name
        count, rate = data.get("points"), data.get("points_per_sec")
        if "workers" in data:
            label = f"{name} (workers={data['workers']})"
        elif "clients" in data:
            label = f"{name} (clients={data['clients']})"
        elif "loops_per_sec" in data:
            label = f"{name} (loops, not points)"
            count, rate = data["loops"], data["loops_per_sec"]
        rows.append((label, data["seconds"], count, rate))
    meta = snapshot["meta"]
    table = format_table(
        ["scenario", "seconds", "points", "points/s"],
        rows,
        title=f"repro bench --loops {meta['loops']} ({meta['git']})",
    )
    ratios = snapshot.get("ratios") or {}
    lines = [table]
    for name, value in ratios.items():
        lines.append(f"{name}: {value}x")
    return "\n".join(lines)


def check_regression(
    snapshot: dict, baseline_path: str | Path, max_regression: float
) -> list[str]:
    """Compare a snapshot against a checked-in baseline.

    Returns a list of failure messages (empty = pass).  Only the
    hardware-independent ratios are gated; wall seconds are reported for
    context but never compared across hosts.  Ratios and scenarios the
    baseline file does not know about are *not* failures -- they surface
    through :func:`baseline_gaps` so an older baseline reports a clear
    note instead of crashing or spuriously failing when a new scenario
    lands.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    base_loops = (baseline.get("meta") or {}).get("loops")
    here_loops = (snapshot.get("meta") or {}).get("loops")
    if base_loops is not None and base_loops != here_loops:
        return [
            f"baseline was measured at --loops {base_loops}, this run at "
            f"--loops {here_loops}; ratios are scale-dependent and not "
            f"comparable"
        ]
    for name, reference in (baseline.get("ratios") or {}).items():
        current = (snapshot.get("ratios") or {}).get(name)
        if current is None:
            failures.append(
                f"{name}: baseline has {reference}, current run lacks the "
                f"scenarios to compute it"
            )
            continue
        floor = reference * (1.0 - max_regression)
        if current < floor:
            failures.append(
                f"{name}: {current}x is below {floor:.2f}x "
                f"(baseline {reference}x - {max_regression:.0%} tolerance)"
            )
    return failures


def baseline_gaps(snapshot: dict, baseline_path: str | Path) -> list[str]:
    """Scenarios/ratios the current run produces but the baseline lacks.

    These cannot be gated (there is no reference value) and must never
    crash the gate or fail it spuriously; the CLI prints them as notes so
    a stale baseline is visible and gets regenerated.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    gaps = []
    base_scenarios = baseline.get("scenarios") or {}
    for name in (snapshot.get("scenarios") or {}):
        if name not in base_scenarios:
            gaps.append(
                f"scenario {name!r} is not in the baseline; regenerate it "
                f"to cover the new measurement"
            )
    base_ratios = baseline.get("ratios") or {}
    for name, current in (snapshot.get("ratios") or {}).items():
        if name not in base_ratios:
            gaps.append(
                f"ratio {name!r} ({current}x) has no baseline reference "
                f"and is not gated"
            )
    return gaps


def main(args: argparse.Namespace) -> int:
    """CLI entry (wired by :mod:`repro.__main__`)."""
    scenarios = tuple(args.scenario) if args.scenario else SCENARIOS
    snapshot = run_bench(
        n_loops=args.loops,
        workers=args.workers,
        scenarios=scenarios,
        repeats=args.repeats,
    )
    print(format_snapshot(snapshot))
    if args.json:
        Path(args.json).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.baseline:
        for gap in baseline_gaps(snapshot, args.baseline):
            print(f"bench note: {gap}")
        failures = check_regression(
            snapshot, args.baseline, args.max_regression
        )
        if failures:
            for failure in failures:
                print(f"bench regression: {failure}", file=sys.stderr)
            return 1
        print(
            f"regression gate: ok against {args.baseline} "
            f"(tolerance {args.max_regression:.0%})"
        )
    return 0


__all__ = [
    "BUDGETS",
    "LATENCY",
    "MODELS",
    "SCENARIOS",
    "SERVE_CLIENTS",
    "SERVE_LOOPS",
    "SUITE_BUILD_LOOPS",
    "baseline_gaps",
    "bench_grid",
    "check_regression",
    "format_snapshot",
    "main",
    "run_bench",
]
