"""Experiment drivers: one module per table/figure of the paper.

Each evaluating module declares the grid points its table or figure
reads (``jobs``) and builds its result from their results (``build``);
their discoverable, schema-validated entries live in the experiment
registry (:mod:`repro.api.registry`), which the suite runner, the CLI,
and ``python -m repro serve`` all dispatch through.
"""

from repro.experiments import (  # noqa: F401 (re-exported modules)
    cost,
    example_loop,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
)

__all__ = [
    "cost",
    "example_loop",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "table1",
]
