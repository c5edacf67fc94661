"""Spilling: what happens when a loop does not fit its register file.

The paper handles over-budget loops by adding spill code and, when that
cannot help, increasing the II (Section 5.4); the resulting extra memory
traffic is what Figure 9 measures.  :mod:`~repro.spill.spiller` rewrites
the dependence graph (store after the producer, load before each
consumer) and iterates schedule -> allocate -> spill until the loop fits,
delegating victim choice and II escalation to the pluggable policies of
:mod:`repro.pipeline.policies`.  :mod:`~repro.spill.traffic` aggregates
memory accesses into the bus-density metric.

Key entry points: :func:`~repro.spill.spiller.evaluate_loop` (the full
loop, returns a :class:`LoopEvaluation`),
:func:`~repro.spill.spiller.spill_value`, and
:func:`~repro.spill.traffic.aggregate_density` /
:func:`~repro.spill.traffic.aggregate_traffic` for Figure 9.
"""

from repro.spill.spiller import (
    LoopEvaluation,
    SpillError,
    evaluate_loop,
    pick_victim,
    spill_value,
    spillable_values,
)
from repro.spill.traffic import (
    aggregate_density,
    aggregate_traffic,
    loop_density,
    memory_ops,
    spill_memory_ops,
)

__all__ = [
    "LoopEvaluation",
    "SpillError",
    "aggregate_density",
    "aggregate_traffic",
    "evaluate_loop",
    "loop_density",
    "memory_ops",
    "pick_victim",
    "spill_memory_ops",
    "spill_value",
    "spillable_values",
]
