"""No refactor may move a single number.

``tests/golden/default_suite.json`` was captured from the original
monolithic implementation (see ``tests/golden/generate.py``).
Recomputing every row through today's code -- where ``pressure_report``
and ``evaluate_loop`` walk a :class:`~repro.kernel.batch.LoopChain` --
must reproduce the snapshot exactly: same schedules, same allocations,
same spill decisions.
"""

import json
from pathlib import Path

import pytest

from tests.golden import generate

GOLDEN_PATH = Path(generate.GOLDEN_PATH)


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(GOLDEN_PATH.read_text())


def test_snapshot_suite_matches_generator(snapshot):
    assert snapshot["suite"]["n_loops"] == generate.N_PRESSURE_LOOPS


def test_pressure_rows_are_byte_identical(snapshot):
    assert generate.pressure_rows() == snapshot["pressure"]


def test_evaluation_rows_are_byte_identical(snapshot):
    assert generate.evaluation_rows() == snapshot["evaluations"]
