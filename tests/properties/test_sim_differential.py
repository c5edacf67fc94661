"""Simulator-grounded differential properties: execution proves analysis.

Every randomly generated loop point is pushed through the full pipeline
under both evaluator tiers (``batch``/``0``) and then *executed*
cycle-by-cycle: :func:`repro.validate.validate_point` cross-checks the
observed II, per-file register occupancy, and memory-bus traffic against
the analytical claims, and requires the tiers -- and the engine's batch
chain -- to agree with each other.
A failure here is an execution counterexample, not a modelling
disagreement -- the reproducer spec in the failure output replays it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import Model
from repro.ir.loop import Loop
from repro.machine.config import paper_config
from repro.validate import TIERS, validate_point

from strategies import dependence_graphs, high_pressure_graphs, machines

#: (model, register budget) points per graph; the small dual budgets force
#: the spill-until-fits loop so spill store/reload chains get executed too.
MODEL_POINTS = (
    (Model.IDEAL, None),
    (Model.UNIFIED, 8),
    (Model.PARTITIONED, 6),
    (Model.SWAPPED, 6),
)


def _validate_all_models(graph, machine, iterations=6):
    loop = Loop(name="hyp", graph=graph, trip_count=50)
    for model, budget in MODEL_POINTS:
        report = validate_point(
            loop,
            machine,
            model,
            register_budget=budget,
            tiers=TIERS,
            iterations=iterations,
        )
        assert report.ok, report.describe()


class TestRandomGraphs:
    @given(dependence_graphs(), st.sampled_from([3, 6]))
    @settings(max_examples=15, deadline=None)
    def test_every_model_and_tier_execution_consistent(self, graph, latency):
        _validate_all_models(graph, paper_config(latency))


class TestAdversarialGraphs:
    """High-pressure graphs with pre-spilled values and distance>1 edges,
    swept over the machine zoo -- including the single-cluster degenerate
    clustered machine, whose dual allocation has exactly one subfile."""

    @given(high_pressure_graphs(), machines())
    @settings(max_examples=10, deadline=None)
    def test_high_pressure_execution_consistent(self, graph, machine):
        _validate_all_models(graph, machine)
