"""The ``repro bench`` driver: snapshot shape, CLI, regression gate."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as cli_main
from repro.bench import (
    SCENARIOS,
    SERVE_LOOPS,
    SUITE_BUILD_LOOPS,
    baseline_gaps,
    check_regression,
    format_snapshot,
    run_bench,
)


@pytest.fixture(scope="module")
def snapshot():
    return run_bench(
        n_loops=2,
        scenarios=("cold_batch", "cold_legacy", "warm"),
    )


class TestRunBench:
    def test_snapshot_shape(self, snapshot):
        assert set(snapshot) == {"meta", "scenarios", "ratios"}
        assert snapshot["meta"]["loops"] == 2
        for name in ("cold_batch", "cold_legacy", "warm"):
            data = snapshot["scenarios"][name]
            assert data["points"] == 2 * 7  # ideal + 2 budgets x 3 models
            assert data["seconds"] >= 0
        assert set(snapshot["ratios"]) == {"kernel_speedup", "warm_speedup"}

    def test_kernel_speedup_is_legacy_over_batch(self, snapshot):
        expected = round(
            snapshot["scenarios"]["cold_legacy"]["seconds"]
            / snapshot["scenarios"]["cold_batch"]["seconds"],
            2,
        )
        assert snapshot["ratios"]["kernel_speedup"] == expected

    def test_warm_speedup_is_batch_over_warm(self, snapshot):
        expected = round(
            snapshot["scenarios"]["cold_batch"]["seconds"]
            / snapshot["scenarios"]["warm"]["seconds"],
            2,
        )
        assert snapshot["ratios"]["warm_speedup"] == expected

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown bench scenario"):
            run_bench(n_loops=1, scenarios=("nope",))

    def test_format_mentions_every_scenario(self, snapshot):
        text = format_snapshot(snapshot)
        for name in snapshot["scenarios"]:
            assert name in text
        assert "kernel_speedup" in text

    def test_dispatch_scenario_records_workers(self):
        snap = run_bench(n_loops=1, workers=0, scenarios=("dispatch",))
        assert snap["scenarios"]["dispatch"]["workers"] == 0
        assert snap["ratios"] == {}

    def test_simulate_scenario_is_informational(self):
        """The simulator timing rides along without a ratio, so an older
        baseline can never gate (or fail) on it."""
        snap = run_bench(n_loops=1, scenarios=("simulate",))
        assert snap["scenarios"]["simulate"]["points"] == 7
        assert snap["ratios"] == {}

    def test_suite_build_scenario_counts_loops(self):
        """Suite construction rides along as loops per second, with no
        ratio, so it never gates."""
        snap = run_bench(n_loops=1, scenarios=("suite_build",))
        data = snap["scenarios"]["suite_build"]
        assert data["loops"] == SUITE_BUILD_LOOPS == 800
        assert data["loops_per_sec"] > 0
        assert snap["ratios"] == {}
        assert "suite_build (loops, not points)" in format_snapshot(snap)


class TestRegressionGate:
    def test_passes_within_tolerance(self, snapshot, tmp_path):
        baseline = dict(snapshot)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        assert check_regression(snapshot, path, max_regression=0.25) == []

    def test_fails_on_regressed_ratio(self, snapshot, tmp_path):
        inflated = {
            "ratios": {
                "kernel_speedup": snapshot["ratios"]["kernel_speedup"] * 10
            }
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(inflated))
        failures = check_regression(snapshot, path, max_regression=0.25)
        assert len(failures) == 1
        assert "kernel_speedup" in failures[0]

    def test_fails_on_scale_mismatch(self, snapshot, tmp_path):
        baseline = json.loads(json.dumps(snapshot))
        baseline["meta"]["loops"] = snapshot["meta"]["loops"] + 1
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        failures = check_regression(snapshot, path, max_regression=0.25)
        assert failures and "scale-dependent" in failures[0]

    def test_fails_on_missing_ratio(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"ratios": {"kernel_speedup": 2.0}}))
        failures = check_regression(
            {"ratios": {}}, path, max_regression=0.25
        )
        assert failures and "lacks the scenarios" in failures[0]

    def test_older_baseline_missing_new_scenario_passes(
        self, snapshot, tmp_path
    ):
        """A baseline predating warm must not crash or fail the gate."""
        baseline = json.loads(json.dumps(snapshot))
        del baseline["scenarios"]["warm"]
        del baseline["ratios"]["warm_speedup"]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        assert check_regression(snapshot, path, max_regression=0.25) == []
        gaps = baseline_gaps(snapshot, path)
        assert any("'warm'" in gap for gap in gaps)
        assert any("warm_speedup" in gap for gap in gaps)

    def test_no_gaps_against_matching_baseline(self, snapshot, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(snapshot))
        assert baseline_gaps(snapshot, path) == []

    def test_every_ratio_gates_at_the_cli_tolerance(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"ratios": {"kernel_speedup": 2.0, "warm_speedup": 3.0}})
        )
        snap = {"ratios": {"kernel_speedup": 1.95, "warm_speedup": 2.7}}
        failures = check_regression(snap, path, max_regression=0.05)
        assert len(failures) == 1
        assert "warm_speedup" in failures[0]
        assert "5%" in failures[0]


class TestCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main(
            [
                "bench",
                "--loops",
                "1",
                "--scenario",
                "cold_batch",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["scenarios"]["cold_batch"]["points"] == 7
        assert "cold_batch" in capsys.readouterr().out

    def test_bench_gate_exit_code(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"ratios": {"kernel_speedup": 1e9}}))
        code = cli_main(
            [
                "bench",
                "--loops",
                "1",
                "--scenario",
                "cold_batch",
                "--scenario",
                "cold_legacy",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        assert "bench regression" in capsys.readouterr().err

    def test_scenario_registry_is_cli_choices(self):
        assert SCENARIOS == (
            "cold_batch",
            "cold_legacy",
            "warm",
            "dispatch",
            "simulate",
            "check",
            "serve_single",
            "suite_build",
        )

    def test_gate_notes_stale_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"ratios": {}}))
        code = cli_main(
            [
                "bench",
                "--loops",
                "1",
                "--scenario",
                "cold_batch",
                "--scenario",
                "warm",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench note" in out
        assert "warm_speedup" in out
