"""``tools/check_durations.py``: the per-test time budget of the test step."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "tools" / "check_durations.py"
_spec = importlib.util.spec_from_file_location("check_durations", SCRIPT)
check_durations = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_durations)

REPORT = """\
........                                                                 [100%]
============================= slowest 15 durations =============================
{call:.2f}s call     tests/properties/test_x.py::TestA::test_slow[4]
12.50s teardown tests/api/test_y.py::test_server
0.40s setup    tests/api/test_y.py::test_server
8 passed in 20.11s
"""


def run(text: str, tmp_path) -> int:
    path = tmp_path / "pytest.log"
    path.write_text(text)
    return check_durations.main([str(path)])


class TestBudget:
    def test_calls_within_budget_pass(self, tmp_path):
        # The slow teardown is listed but not gated.
        assert run(REPORT.format(call=9.99), tmp_path) == 0

    def test_a_slow_call_fails(self, tmp_path, capsys):
        assert run(REPORT.format(call=10.01), tmp_path) == 1
        assert "test_x.py::TestA::test_slow[4]" in capsys.readouterr().err

    def test_missing_durations_section_is_an_error(self, tmp_path):
        assert run("8 passed in 20.11s\n", tmp_path) == 2

    def test_lines_before_the_section_are_ignored(self, tmp_path):
        report = "99.00s call tests/not/a/duration.py\n" + REPORT.format(
            call=1.0
        )
        assert run(report, tmp_path) == 0
