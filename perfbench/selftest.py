"""Self-tests of the benchmark.  Run: ``python3 perfbench/selftest.py``.

They run the benchmark itself on tiny rounds (``--tiny``), so they take
about a minute and are kept out of the repository's test suite.

* ``BENCHMARK.json`` is what ``perfbench/spec.py`` generates;
* a tiny run of each workload emits every named metric, with a valid name
  and its unit, and passes its output checks;
* a result corrupted through a wrapped layer function makes ``error_rate``
  positive and the run incorrect;
* in each traced run the self times sum to no more than the traced wall
  time;
* without the sources it measures, the benchmark fails without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spec  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = list(spec.WORKLOADS)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds",
         "0.5", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(*args: str) -> dict:
    done = run(*args)
    if done.returncode != 0:
        raise AssertionError(f"run {args} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_benchmark_json_matches_spec(self) -> None:
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, spec.benchmark_json())

    def test_every_metric_named_and_checked(self) -> None:
        expected = {
            0: {name: unit for name, unit, _b, _bound in spec.END_TO_END},
            1: {name: entry[0] for name, entry in spec.PER_LAYER.items()},
        }
        for workload in WORKLOADS:
            for trace, units in expected.items():
                with self.subTest(workload=workload, trace=trace):
                    out = result("--workload", workload, "--trace", str(trace))
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    metrics = out["metrics"]
                    self.assertEqual(set(metrics), set(units))
                    for name, entry in metrics.items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(entry["unit"], units[name])
                        self.assertIsInstance(entry["value"], (int, float))
                    if trace == 0:
                        for name, entry in metrics.items():
                            self.assertGreater(entry["value"], 0, name)
                    else:
                        self.assertEqual(metrics["error_rate"]["value"], 0)
                        self._self_time_within_wall(workload)

    def _self_time_within_wall(self, workload: str) -> None:
        trace = json.loads(
            (worker.TRACE_DIR / f"{workload}-seed7" / "trace.json").read_text()
        )
        self.assertGreater(sum(trace["calls"].values()), 0)
        self.assertLessEqual(
            sum(trace["self_s"].values()), trace["traced_wall_s"]
        )

    def test_injected_fault_counts_as_error(self) -> None:
        for workload, target in (
            ("grid", "execute_batch"),
            ("proof", "run_evaluation"),
            ("serve", "execute_batch"),
        ):
            with self.subTest(workload=workload):
                out = result(
                    "--workload", workload, "--trace", "1", "--inject", target
                )
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"], 0)
                self.assertGreater(out["metrics"]["error_rate"]["value"], 0)

    def test_traced_grid_bypasses_per_point_pipeline(self) -> None:
        grid = result("--workload", "grid", "--trace", "1")["metrics"]
        proof = result("--workload", "proof", "--trace", "1")["metrics"]
        self.assertEqual(grid["pipeline.run_evaluation.calls"]["value"], 0)
        self.assertGreater(grid["kernel.LoopChain.calls"]["value"], 0)
        self.assertEqual(proof["kernel.LoopChain.calls"]["value"], 0)
        self.assertGreater(proof["pipeline.run_evaluation.calls"]["value"], 0)

    def test_fails_without_sources(self) -> None:
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in spec.PATHS:
                shutil.copytree(
                    ROOT / path, bare / path,
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            done = run("--workload", "grid", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
