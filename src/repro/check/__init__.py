"""Static verification: prove schedules and allocations without executing.

Two halves, one idea -- replace "trust the pipeline" with machine-checked
proofs:

* :mod:`repro.check.invariants` proves a single evaluated point's
  dependence legality, resource consistency, allocation soundness, and
  spill/traffic accounting analytically, in O(ops + edges);
* :mod:`repro.check.coverage` runs that proof over 100% of the suite
  grid, on the artifacts of the engine's own evaluator (the dynamic
  simulator gate stays sampled);
* :mod:`repro.check.lint` turns the same discipline on the codebase
  itself: AST rules pinning the determinism, immutability, and
  concurrency invariants the engine cache and fingerprints rely on.

Layering: ``check`` imports only core/ir/sched/regalloc/spill/pipeline
and, for the evaluator it proves, :mod:`repro.kernel.batch`.
It must never import :mod:`repro.validate` -- validate imports check.
"""

from repro.check.coverage import (
    CHECK_MODELS,
    StaticValidation,
    chain_claims,
    check_grid_point,
    run_static_validation,
)
from repro.check.invariants import (
    Finding,
    StaticCheck,
    StaticCheckError,
    allocation_of,
    check_evaluation,
)

__all__ = [
    "CHECK_MODELS",
    "Finding",
    "StaticCheck",
    "StaticCheckError",
    "StaticValidation",
    "allocation_of",
    "chain_claims",
    "check_evaluation",
    "check_grid_point",
    "run_static_validation",
]
