"""``repro.validate`` -- prove analytical claims by cycle-level execution.

The analytical pipeline (schedule -> allocate -> swap -> spill) *claims*
an II, a register requirement, and a traffic density for every evaluated
point; :mod:`repro.sim` can *execute* such a point against a golden
reference interpreter.  This package wires the two together into a
differential gate:

* :func:`validate_evaluation` executes one
  :class:`~repro.spill.spiller.LoopEvaluation` and cross-checks observed
  II, per-file register occupancy, and memory-bus traffic against the
  claims;
* :func:`validate_point` does so under both evaluator tiers (``batch``,
  the point a :class:`~repro.kernel.batch.LoopChain` materializes, and
  ``0``, the dict reference pipeline), additionally requiring the tiers'
  analytics -- and the result the engine serves -- to agree, and
  statically proves the chain's materialized point;
* :func:`run_sampled_validation` drives a seeded sample of suite points
  through the above -- the ``repro report --check`` and ``repro
  validate`` entry.

See ``docs/validation.md`` for what is checked and how to read a
:class:`Mismatch`.
"""

from repro.validate.differential import (
    FileOccupancy,
    Mismatch,
    PointValidation,
    TIERS,
    ValidationError,
    ValidationReport,
    allocation_for,
    default_iterations,
    reproducer_spec,
    static_mismatches,
    validate_evaluation,
    validate_point,
)
from repro.validate.sampling import (
    DEFAULT_LATENCY,
    DEFAULT_SAMPLES,
    SAMPLE_MODELS,
    SampledValidation,
    run_sampled_validation,
    sample_indices,
)

__all__ = [
    "DEFAULT_LATENCY",
    "DEFAULT_SAMPLES",
    "FileOccupancy",
    "Mismatch",
    "PointValidation",
    "SAMPLE_MODELS",
    "SampledValidation",
    "TIERS",
    "ValidationError",
    "ValidationReport",
    "allocation_for",
    "default_iterations",
    "reproducer_spec",
    "run_sampled_validation",
    "sample_indices",
    "static_mismatches",
    "validate_evaluation",
    "validate_point",
]
