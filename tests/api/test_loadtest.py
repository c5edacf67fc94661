"""The load harness: workload shapes, percentiles and a throttled run.

:mod:`repro.api.loadtest` drives ``python -m repro serve`` for
``repro bench``, ``benchmarks/bench_serve.py`` and the CI load smoke.
"""

import pytest

from repro.api.loadtest import (
    LoadStats,
    ServerProcess,
    build_workload,
    percentile,
    run_load,
)


class TestLoadHarness:
    def test_workload_shapes_and_determinism(self):
        cold = build_workload("cold", 3)
        assert len(cold) == 3 * 7  # ideal + 2 budgets x 3 models
        assert len({id(b) for b in cold}) == len(cold)
        mixed_a = build_workload("mixed", 3)
        mixed_b = build_workload("mixed", 3)
        assert mixed_a == mixed_b  # seeded shuffle: same order every time
        assert len(mixed_a) == 2 * len(cold)
        warm = build_workload("warm", 3)
        assert warm == cold

    def test_workload_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_workload("hot", 3)

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(50.0, abs=1.0)
        assert percentile(values, 99) == pytest.approx(99.0, abs=1.0)
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 0) == 7.0

    def test_load_stats_shapes(self):
        stats = LoadStats(
            requests=10, elapsed=2.0, latencies=[0.1] * 9 + [0.5]
        )
        assert stats.points_per_sec == 5.0
        assert stats.p50_ms == pytest.approx(100.0)
        assert stats.p99_ms == pytest.approx(500.0)
        payload = stats.as_dict()
        assert payload["points_per_sec"] == 5.0
        assert payload["p99_ms"] == 500.0

    def test_rate_limited_server_throttles_then_serves_all(self):
        """429s are honored (Retry-After) and every body still lands."""
        with ServerProcess(
            rate_limit=30.0, extra_args=("--burst", "2")
        ) as server:
            bodies = build_workload("cold", 1)
            stats = run_load(server.url, bodies, clients=4)
            assert server.shutdown() is True
        assert stats.errors == 0, stats.error_samples
        assert stats.requests == len(bodies)
        assert stats.throttled > 0

    def test_load_run_is_error_free_and_complete(self):
        with ServerProcess() as server:
            bodies = build_workload("cold", 4)
            stats = run_load(server.url, bodies, clients=8)
            warm = run_load(server.url, bodies, clients=8)
            health = server.request("health")[1]["result"]
            assert server.shutdown() is True
        for run in (stats, warm):
            assert run.errors == 0, run.error_samples
            assert run.requests == len(bodies)
            assert run.p99_ms > 0
        # The warm round was served from the one server's cache.
        assert health["cache"]["hits"] >= len(bodies)
