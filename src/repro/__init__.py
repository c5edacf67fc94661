"""repro -- reproduction of "Non-Consistent Dual Register Files to Reduce
Register Pressure" (Llosa, Valero, Ayguade; HPCA 1995).

The package implements the paper's complete pipeline in pure Python:

* :mod:`repro.ir` -- loop bodies as data-dependence graphs (+ builder DSL);
* :mod:`repro.machine` -- VLIW machine configurations and register-file
  cost models;
* :mod:`repro.sched` -- iterative modulo scheduling;
* :mod:`repro.regalloc` -- lifetimes, MaxLive, wands-only first-fit
  allocation for rotating register files;
* :mod:`repro.core` -- the contribution: non-consistent dual register
  files (GL/LO/RO classification, dual allocation, greedy swapping, the
  Ideal/Unified/Partitioned/Swapped models);
* :mod:`repro.pipeline` -- the pluggable spill/escalation policies and the
  dict reference of the Section 5.4 loop;
* :mod:`repro.spill` -- the naive spiller and traffic metrics;
* :mod:`repro.sim` -- a verifying cycle-level kernel simulator;
* :mod:`repro.workloads` -- kernels and the calibrated Perfect-Club-like
  synthetic suite;
* :mod:`repro.analysis` / :mod:`repro.experiments` -- distributions,
  performance aggregation, shared table/chart primitives, and one driver
  per table/figure;
* :mod:`repro.report` -- the reproduction artifact: paper-delta
  validation (``python -m repro report --check``), Markdown/HTML
  rendering, provenance;
* :mod:`repro.api` -- the versioned typed facade: ``Session``,
  JSON-round-trippable request/response types, the experiment registry,
  and the concurrent ``python -m repro serve`` front-end.

``import repro`` is lazy (PEP 562): each name of ``__all__`` is imported
from its defining module on first access, so ``import repro.<subpackage>``
loads only that subpackage and what it imports -- the proof path never
pays for the HTTP front-end, the report or the experiment drivers.

Quickstart::

    from repro import Model, evaluate_loop, paper_config
    from repro.workloads import example_loop

    ev = evaluate_loop(example_loop(), paper_config(3), Model.SWAPPED, 32)
    print(ev.ii, ev.requirement.registers)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_attributes

if TYPE_CHECKING:
    from repro.api import (
        API_SCHEMA_VERSION,
        ApiError,
        EvaluateRequest,
        ExperimentRequest,
        LoopSpec,
        MachineSpec,
        PressureRequest,
        ReportRequest,
        ScheduleRequest,
        Session,
        SweepRequest,
        capabilities,
        get_experiment,
        list_experiments,
    )
    from repro.core.models import Model, Requirement, required_registers
    from repro.core.pressure import PressureReport, pressure_report
    from repro.engine.cache import ResultCache, default_cache_dir
    from repro.engine.pool import Engine, serial_engine
    from repro.engine.sweep import (
        SweepSpec,
        format_outcome,
        named_sweep,
        run_sweep,
    )
    from repro.ir.builder import LoopBuilder
    from repro.ir.loop import Loop
    from repro.machine.config import (
        MachineConfig,
        clustered_config,
        example_config,
        paper_config,
        pxly,
    )
    from repro.pipeline.pipelines import run_evaluation, run_pressure
    from repro.pipeline.policies import SPILL_POLICIES
    from repro.report import ReportResult, generate_report
    from repro.sched.modulo import modulo_schedule, schedule_loop
    from repro.spill.spiller import LoopEvaluation, evaluate_loop

#: Public name -> the module that defines it, resolved on first access.
_EXPORTS: dict[str, str] = {
    "API_SCHEMA_VERSION": "repro.api",
    "ApiError": "repro.api",
    "EvaluateRequest": "repro.api",
    "ExperimentRequest": "repro.api",
    "LoopSpec": "repro.api",
    "MachineSpec": "repro.api",
    "PressureRequest": "repro.api",
    "ReportRequest": "repro.api",
    "ScheduleRequest": "repro.api",
    "Session": "repro.api",
    "SweepRequest": "repro.api",
    "capabilities": "repro.api",
    "get_experiment": "repro.api",
    "list_experiments": "repro.api",
    "Model": "repro.core.models",
    "Requirement": "repro.core.models",
    "required_registers": "repro.core.models",
    "PressureReport": "repro.core.pressure",
    "pressure_report": "repro.core.pressure",
    "ResultCache": "repro.engine.cache",
    "default_cache_dir": "repro.engine.cache",
    "Engine": "repro.engine.pool",
    "serial_engine": "repro.engine.pool",
    "SweepSpec": "repro.engine.sweep",
    "format_outcome": "repro.engine.sweep",
    "named_sweep": "repro.engine.sweep",
    "run_sweep": "repro.engine.sweep",
    "LoopBuilder": "repro.ir.builder",
    "Loop": "repro.ir.loop",
    "MachineConfig": "repro.machine.config",
    "clustered_config": "repro.machine.config",
    "example_config": "repro.machine.config",
    "paper_config": "repro.machine.config",
    "pxly": "repro.machine.config",
    "run_evaluation": "repro.pipeline.pipelines",
    "run_pressure": "repro.pipeline.pipelines",
    "SPILL_POLICIES": "repro.pipeline.policies",
    "ReportResult": "repro.report",
    "generate_report": "repro.report",
    "modulo_schedule": "repro.sched.modulo",
    "schedule_loop": "repro.sched.modulo",
    "LoopEvaluation": "repro.spill.spiller",
    "evaluate_loop": "repro.spill.spiller",
}

__version__ = "1.0.0"

__all__ = [
    "API_SCHEMA_VERSION",
    "ApiError",
    "Engine",
    "EvaluateRequest",
    "ExperimentRequest",
    "LoopSpec",
    "MachineSpec",
    "PressureRequest",
    "ReportRequest",
    "ScheduleRequest",
    "Session",
    "SweepRequest",
    "capabilities",
    "get_experiment",
    "list_experiments",
    "Loop",
    "LoopBuilder",
    "LoopEvaluation",
    "MachineConfig",
    "Model",
    "PressureReport",
    "ReportResult",
    "Requirement",
    "ResultCache",
    "SPILL_POLICIES",
    "SweepSpec",
    "clustered_config",
    "default_cache_dir",
    "evaluate_loop",
    "example_config",
    "format_outcome",
    "generate_report",
    "modulo_schedule",
    "named_sweep",
    "paper_config",
    "pressure_report",
    "pxly",
    "required_registers",
    "run_evaluation",
    "run_pressure",
    "run_sweep",
    "schedule_loop",
    "serial_engine",
    "__version__",
]


__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)
