"""Parallel sweep engine: cached, multiprocess batch evaluation.

The engine turns every experiment into data: declarative
:class:`~repro.engine.jobs.EvalJob` specs with deterministic content
hashes, executed through a :class:`~repro.engine.pool.Engine` that fronts a
:class:`~repro.engine.cache.ResultCache` (one SQLite file + in-process LRU)
and a :class:`~repro.engine.pool.WorkerPool` of worker processes.  The
figure/table drivers of :mod:`repro.experiments` all route their per-point
evaluation through here, the static proof is one proving map
(:mod:`repro.check.coverage`), and :mod:`repro.engine.sweep` opens the same
machinery to arbitrary user-defined scenario grids (``python -m repro
sweep``).

Like ``repro/__init__``, this package resolves its public names lazily
(PEP 562): ``from repro.engine import pool`` loads the pool and what it
imports, not the sweep front-end and its table formatting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_attributes

if TYPE_CHECKING:
    from repro.engine.cache import CacheStats, ResultCache, default_cache_dir
    from repro.engine.jobs import (
        ENGINE_SCHEMA_VERSION,
        EvalJob,
        EvalResult,
        PressureResult,
        evaluate_job,
        execute_job,
        graph_fingerprint,
        loop_fingerprint,
        machine_fingerprint,
        pressure_job,
    )
    from repro.engine.pool import (
        Engine,
        default_workers,
        run_jobs,
        serial_engine,
    )
    from repro.engine.sweep import (
        NAMED_SWEEPS,
        SweepOutcome,
        SweepSpec,
        build_points,
        format_outcome,
        named_sweep,
        run_sweep,
    )

#: Public name -> the module that defines it, resolved on first access.
_EXPORTS: dict[str, str] = {
    "CacheStats": "repro.engine.cache",
    "ResultCache": "repro.engine.cache",
    "default_cache_dir": "repro.engine.cache",
    "ENGINE_SCHEMA_VERSION": "repro.engine.jobs",
    "EvalJob": "repro.engine.jobs",
    "EvalResult": "repro.engine.jobs",
    "PressureResult": "repro.engine.jobs",
    "evaluate_job": "repro.engine.jobs",
    "execute_job": "repro.engine.jobs",
    "graph_fingerprint": "repro.engine.jobs",
    "loop_fingerprint": "repro.engine.jobs",
    "machine_fingerprint": "repro.engine.jobs",
    "pressure_job": "repro.engine.jobs",
    "Engine": "repro.engine.pool",
    "default_workers": "repro.engine.pool",
    "run_jobs": "repro.engine.pool",
    "serial_engine": "repro.engine.pool",
    "NAMED_SWEEPS": "repro.engine.sweep",
    "SweepOutcome": "repro.engine.sweep",
    "SweepSpec": "repro.engine.sweep",
    "build_points": "repro.engine.sweep",
    "format_outcome": "repro.engine.sweep",
    "named_sweep": "repro.engine.sweep",
    "run_sweep": "repro.engine.sweep",
}

__all__ = [
    "CacheStats",
    "ENGINE_SCHEMA_VERSION",
    "Engine",
    "EvalJob",
    "EvalResult",
    "NAMED_SWEEPS",
    "PressureResult",
    "ResultCache",
    "SweepOutcome",
    "SweepSpec",
    "build_points",
    "default_cache_dir",
    "default_workers",
    "evaluate_job",
    "execute_job",
    "format_outcome",
    "graph_fingerprint",
    "loop_fingerprint",
    "machine_fingerprint",
    "named_sweep",
    "pressure_job",
    "run_jobs",
    "run_sweep",
    "serial_engine",
]


__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)
