"""Parallel sweep engine: cached, multiprocess batch evaluation.

The engine turns every experiment into data: declarative
:class:`~repro.engine.jobs.EvalJob` specs with deterministic content
hashes, executed through a :class:`~repro.engine.pool.Engine` that fronts a
:class:`~repro.engine.cache.ResultCache` (one SQLite file + in-process LRU)
and a :mod:`multiprocessing` worker pool.  The figure/table drivers of
:mod:`repro.experiments` all route their per-point evaluation through here,
and :mod:`repro.engine.sweep` opens the same machinery to arbitrary
user-defined scenario grids (``python -m repro sweep``).
"""

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
from repro.engine.pool import Engine, default_workers, run_jobs, serial_engine
from repro.engine.sweep import (
    NAMED_SWEEPS,
    SweepOutcome,
    SweepSpec,
    build_points,
    format_outcome,
    named_sweep,
    run_sweep,
)

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
