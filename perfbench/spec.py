"""What the benchmark measures: workloads, metrics and their layer mapping.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/spec.py > BENCHMARK.json``) and the self-test checks
that the two agree.  ``BENCHMARK.json`` carries only name, unit and
direction per metric; the mapping of each per-layer metric to the
end-to-end metric and workload it should move lives in :data:`PER_LAYER`.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35

#: name -> why.  The serve entry also states its load shape.
WORKLOADS = {
    "grid": (
        "Production path of repro run/report: seeded suites through "
        "engine.run_jobs (serial, batch tier) into a fresh result cache, "
        "then re-run warm; loads kernel+engine, bypasses check/HTTP"
    ),
    "proof": (
        "check.run_static_validation proves every point of seeded suites "
        "under 4 models; loads the per-point pipeline/sched/spill path and "
        "check, bypasses batching, cache and HTTP"
    ),
    "serve": (
        "Closed loop, 2 keep-alive clients, default single-process repro "
        "serve (no coalescing); every grid point of a seeded suite twice, "
        "shuffled: HTTP, Session and cache hits"
    ),
}

#: (name, unit, better, bound).  Every workload reports every metric; on
#: grid a latency sample is one loop's group of 8 points in the cold pass,
#: on proof one proved point, on serve one request.
#: Bounds: on a 2-vCPU shared cloud host (Xeon, 2.1 GHz) the same work ran
#: up to ~1.3x slower for minutes at a time, and ten seeds spread the
#: timings by 0.1-0.23 (IQR / median); no timing bound could be tighter
#: than the largest allowed.  Peak memory spread by under 0.02.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("points_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
]

_ALL = ("grid", "proof", "serve")


def _pair(prefix: str) -> list[str]:
    return [f"{prefix}.calls", f"{prefix}.self_s"]


#: (names, unit, better, moves, light_on).  ``moves`` lists the
#: (end-to-end metric, workload) pairs the layer should move where it is
#: heavy; ``light_on`` the workloads where it is light or absent.
_LAYERS = [
    (["workloads.perfect_club_like.self_s"], "s", "lower",
     [("setup_s", w) for w in _ALL], []),
    (["engine.run_jobs.self_s", *_pair("engine.execute_batch")], None,
     "lower", [("points_per_s", "grid")], ["proof"]),
    (["engine.points_per_group"], "count", "higher",
     [("points_per_s", "grid")], ["proof"]),
    (["engine.group_ms_p50", "engine.group_ms_p95", "engine.group_ms_max"],
     "ms", "lower", [("points_per_s", "grid"), ("latency_p99_ms", "grid")],
     []),
    (["engine.top5_group_share"], "fraction", "lower",
     [("points_per_s", "grid")], []),
    (_pair("engine.cache_get"), None, "lower",
     [("latency_p50_ms", "serve")], ["proof"]),
    (["engine.cache_hit_ratio"], "fraction", "higher",
     [("latency_p50_ms", "serve")], ["proof"]),
    (_pair("engine.cache_put"), None, "lower",
     [("points_per_s", "grid"), ("latency_p50_ms", "serve")], ["proof"]),
    (["engine.warm_points_per_s"], "1/s", "higher",
     [("points_per_s", "grid")], ["proof", "serve"]),
    (_pair("kernel.lower_loop") + _pair("kernel.array_mii"), None, "lower",
     [("points_per_s", "grid")], ["serve"]),
    (_pair("kernel.attempt") + _pair("kernel.heights"), None, "lower",
     [("points_per_s", "grid"), ("points_per_s", "proof")], ["serve"]),
    (["kernel.ims_success_ratio"], "fraction", "higher",
     [("points_per_s", "grid"), ("points_per_s", "proof")], ["serve"]),
    (_pair("kernel.lifetime_bounds") + _pair("kernel.live_profile_spans"),
     None, "lower", [("points_per_s", "grid")], ["serve"]),
    (_pair("kernel.first_fit_shift") + _pair("kernel.dual_registers")
     + _pair("kernel.dual_max_live") + _pair("kernel.greedy_swap_search"),
     None, "lower",
     [("points_per_s", "grid"), ("points_per_s", "proof")], ["serve"]),
    (["kernel.LoopChain.calls", "kernel.LoopChain.evaluate.calls"], "count",
     "lower", [("points_per_s", "grid")], ["proof"]),
    (_pair("pipeline.run_evaluation") + _pair("pipeline.policy_select"),
     None, "lower", [("points_per_s", "proof")], ["grid"]),
    (_pair("sched.modulo_schedule") + _pair("spill.spill_value"), None,
     "lower", [("points_per_s", "proof")], ["grid"]),
    (_pair("check.check_evaluation"), None, "lower",
     [("points_per_s", "proof")], ["grid", "serve"]),
    (["check.evaluate_share"], "fraction", "lower",
     [("points_per_s", "proof")], ["grid", "serve"]),
    (["api.hit_ms_p50", "api.miss_ms_p50", "api.miss_ms_p99"], "ms",
     "lower",
     [("latency_p50_ms", "serve"), ("latency_p99_ms", "serve")],
     ["grid", "proof"]),
    (["api.cached_ratio"], "fraction", "higher",
     [("latency_p50_ms", "serve")], ["grid", "proof"]),
    (["api.retries"], "count", "lower",
     [("latency_p99_ms", "serve")], ["grid", "proof"]),
    (["api.session_ms_p50", "api.session_ms_p99"], "ms", "lower",
     [("latency_p50_ms", "serve")], ["grid", "proof"]),
    (["error_rate"], "fraction", "lower", [], []),
    (["trace.overhead_ratio"], "ratio", "lower", [], []),
]


def _unit(name: str, unit: "str | None") -> str:
    if unit is not None:
        return unit
    return "s" if name.endswith("self_s") else "count"


#: name -> (unit, better, moves, light_on), in report order.
PER_LAYER = {
    name: (_unit(name, unit), better, moves, light)
    for names, unit, better, moves, light in _LAYERS
    for name in names
}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _moves, _light) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
