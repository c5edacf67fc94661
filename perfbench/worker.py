"""One workload in a fresh process: set up, measure, check, report.

Run by ``perfbench/run.py``; not meant to be called by hand.  Prints
diagnostic lines and, as its last line, one JSON object that the parent
reads.  ``--setup-only`` stops after set-up, so the parent can take several
set-up samples, each paying the import again.

Every workload runs in rounds.  A round evaluates one seeded suite
(:mod:`suite`); rounds repeat until ``--seconds`` are used, so a faster
program measures more rounds, never a different mix.  Output checks run
after the measured window, with tracing removed.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

import spec  # noqa: E402
import suite  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Synthetic loops per round, on top of the hand-written kernels.
ROUND_SYNTHETIC = {"grid": 200, "proof": 100, "serve": 23}

#: Share of the slowest loops set aside from ``points_per_s`` on grid and
#: proof.  About one loop in 2000 costs seconds against a median of 0.5 ms;
#: whether a run draws one would move its rate by 10-20%.
#: ``latency_p99_ms`` and the traced tail report carry the tail instead.
TRIM = 0.01

#: ``--tiny`` rounds (the self-test): kernels kept, synthetic loops.
TINY_ROUND = (2, 3)

#: Grid points per round re-evaluated per point for the output check, and
#: the time after which the check stops.
CHECK_PER_ROUND = 2
CHECK_BUDGET_S = 5.0

SERVE_CLIENTS = 2

#: Where traced runs write their spans, inside the checkout.
TRACE_DIR = Path(__file__).resolve().parents[1] / ".perfbench_trace"


def trimmed_rate(loops: list[tuple[int, float]], seconds: float) -> float:
    """Points per second, the slowest ``TRIM`` of loops set aside.

    ``loops`` holds ``(points, seconds)`` per loop; ``seconds`` is the whole
    measured time, which also covers work outside any loop.
    """
    slowest = sorted(loops, key=lambda loop: loop[1])[
        len(loops) - int(TRIM * len(loops)):
    ]
    points = sum(p for p, _ in loops) - sum(p for p, _ in slowest)
    return points / (seconds - sum(s for _, s in slowest))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    from repro.api.loadtest import percentile as nearest_rank

    return nearest_rank(values, q)


class Context:
    """Arguments, work directory, tracer and set-up time of one run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.setup_only: bool = args.setup_only
        self.workdir = Path(args.workdir)
        self.tracer = Tracer() if args.trace else None
        self.inject = args.inject
        self.tiny: bool = args.tiny
        self.traced_wall_s = 0.0
        self.setup_s = 0.0
        self.lines: list[str] = []
        #: Extra sections of the written trace summary.
        self.trace_extra: dict = {}

    def suite(self, workload: str, index: int) -> tuple[list, list]:
        """Loops of round ``index`` of ``workload`` and their references."""
        kernels, synthetic = (
            TINY_ROUND if self.tiny else (None, ROUND_SYNTHETIC[workload])
        )
        return suite.stratified_suite(
            self.seed, workload, index, synthetic, kernels
        )

    def serve_bodies(self, index: int) -> list[dict]:
        """Request bodies of serve round ``index``."""
        _loops, refs = self.suite("serve", index)
        return suite.serve_bodies(
            refs, suite.round_seed(self.seed, "serve-shuffle", index)
        )

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - START

    def say(self, line: str) -> None:
        self.lines.append(line)

    def rounds(self, run_round: Callable[[], None]) -> None:
        """Run rounds until ``seconds`` are used.

        A round that would likely end past 1.1 x ``seconds`` is not begun.
        """
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            run_round()
            now = time.perf_counter()
            elapsed = now - start
            if elapsed >= self.seconds or (
                elapsed + (now - began) > 1.1 * self.seconds
            ):
                return

    def traced(self, fn: Callable, *args: Any) -> tuple[Any, float]:
        """Run ``fn`` with the tracer installed; returns result and wall."""
        assert self.tracer is not None
        self.tracer.install()
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            self.traced_wall_s += wall
            self.tracer.uninstall()
        return result, wall

    def perturb(self) -> None:
        """Self-test hook: corrupt one layer's results (``--inject``)."""
        if self.inject:
            inject(self.inject)


def inject(target: str) -> None:
    """Wrap a layer function so that every result it returns is wrong."""
    from dataclasses import replace

    if target == "execute_batch":
        from repro.engine import pool

        original = pool.execute_batch

        def broken(jobs: list) -> list:
            return [replace(r, ii=r.ii + 1) for r in original(jobs)]

        pool.execute_batch = broken
    elif target == "run_evaluation":
        from repro.check import coverage

        original_evaluation = coverage.run_evaluation

        def broken_evaluation(*args: Any, **kwargs: Any) -> Any:
            evaluation = original_evaluation(*args, **kwargs)
            return replace(evaluation, mii=evaluation.mii + 1)

        coverage.run_evaluation = broken_evaluation
    else:
        raise ValueError(f"unknown injection target {target!r}")


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------
def run_grid(ctx: Context) -> dict:
    from repro.bench import bench_grid
    from repro.engine import pool
    from repro.engine.cache import ResultCache
    from repro.engine.jobs import batch_key, evaluate_job, pressure_job
    from repro.machine.config import paper_config

    machine = paper_config(suite.LATENCY)

    def round_jobs(index: int) -> list:
        loops, _refs = ctx.suite("grid", index)
        jobs = []
        for loop in loops:
            jobs.append(pressure_job(loop, machine))
            jobs.extend(
                evaluate_job(lp, mach, model, budget)
                for lp, mach, model, budget in bench_grid([loop], machine)
            )
        return jobs

    pending = round_jobs(0)
    ctx.setup_done()
    if ctx.setup_only:
        return {}
    ctx.perturb()

    def passes(jobs: list, index: int) -> dict:
        """Cold pass into a fresh result cache, then a warm pass over it.

        Keeps only timings, the warm/cold mismatch count and a seeded
        sample of points, so memory does not grow with the round count.
        """
        stamps: list[tuple[int, float]] = []
        cache = ResultCache(directory=None)
        begin = time.perf_counter()
        cold = pool.run_jobs(
            jobs,
            workers=0,
            cache=cache,
            on_result=lambda position, _job, _result: stamps.append(
                (position, time.perf_counter())
            ),
        )
        cold_s = time.perf_counter() - begin
        start = time.perf_counter()
        warm = pool.run_jobs(jobs, workers=0, cache=cache)
        warm_s = time.perf_counter() - start
        # Results land group by group; a group ends where the batch key
        # changes.  In-batch duplicates land last and belong to no group.
        groups: list[list] = []  # [points, stamp of the group's last result]
        seen: set[str] = set()
        last_key = None
        for position, stamp in stamps:
            job = jobs[position]
            if job.key in seen:
                continue
            seen.add(job.key)
            key = batch_key(job)
            if key != last_key:
                groups.append([0, stamp])
                last_key = key
            groups[-1][0] += 1
            groups[-1][1] = stamp
        ends = [begin] + [end for _points, end in groups]
        rng = random.Random(f"{ctx.seed}:{index}")
        return {
            "points": len(jobs),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "groups": [
                (points, end - previous)
                for (points, end), previous in zip(groups, ends)
            ],
            "mismatched": sum(a != b for a, b in zip(cold, warm)),
            "sample": rng.sample(list(zip(jobs, cold)), CHECK_PER_ROUND),
        }

    rounds: list[dict] = []
    layers: dict[str, float] = {}

    if ctx.tracer is not None:
        # Untraced baseline of round 0, then the same inputs (fresh objects,
        # so no per-object memo carries over) traced.
        baseline = passes(pending, 0)
        traced, _wall = ctx.traced(lambda: passes(round_jobs(0), 0))
        rounds.append(traced)
        layers["trace.overhead_ratio"] = traced["cold_s"] / baseline["cold_s"]
        layers["engine.warm_points_per_s"] = (
            baseline["points"] / baseline["warm_s"]
        )
        pending = None

    def grid_round() -> None:
        nonlocal pending
        index = len(rounds)
        if ctx.tracer is not None:
            rounds.append(
                ctx.traced(lambda: passes(round_jobs(index), index))[0]
            )
        else:
            jobs = pending if pending is not None else round_jobs(index)
            pending = None
            rounds.append(passes(jobs, index))

    ctx.rounds(grid_round)
    peak_rss_mb = _own_peak_rss_mb()

    attempted = sum(r["points"] for r in rounds)
    failed = sum(r["mismatched"] for r in rounds)
    failed += _check_grid_sample(ctx, [p for r in rounds for p in r["sample"]])
    groups = [g for r in rounds for g in r["groups"]]
    latencies = [seconds * 1000.0 for _points, seconds in groups]
    cold_s = sum(r["cold_s"] for r in rounds)
    rates = [r["points"] / r["cold_s"] for r in rounds]
    ctx.say(
        f"grid: {len(rounds)} rounds, {attempted} points, {len(latencies)} "
        f"loop groups (latency samples), cold {cold_s:.2f}s, "
        f"{attempted / cold_s:.1f} points/s overall"
    )
    ctx.say("grid rounds, points/s: " + " ".join(f"{r:.0f}" for r in rates))
    metrics = {
        "peak_rss_mb": peak_rss_mb,
        "points_per_s": trimmed_rate(groups, cold_s),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
    }
    if ctx.tracer is not None:
        layers.update(_grid_tail(ctx, cold_s))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "layers": layers}


def _check_grid_sample(ctx: Context, sample: list) -> int:
    """Re-evaluate the sampled points per point; count mismatches."""
    from repro.engine.jobs import execute_job

    start = time.perf_counter()
    failed = checked = 0
    for job, result in sample:
        failed += execute_job(job) != result
        checked += 1
        if time.perf_counter() - start > CHECK_BUDGET_S:
            break
    ctx.say(f"grid check: {checked} sampled points re-evaluated per point")
    return failed


def _grid_tail(ctx: Context, cold_s: float) -> dict[str, float]:
    """The five slowest groups (the loop tail) and their share of grid time.

    Every round evaluates the same heavy loops, so a loop is listed once,
    with its slowest group.
    """
    from repro.engine.jobs import batch_key

    assert ctx.tracer is not None
    top = {}
    for group in sorted(ctx.tracer.groups, key=lambda g: g[0], reverse=True):
        top.setdefault(batch_key(group[1][0]), group)
    ctx.say("slowest execute_batch groups (loop, ops, spilled, share):")
    tail = []
    for seconds, jobs, results in list(top.values())[:5]:
        loop = jobs[0].loop
        spilled = max(
            (getattr(r, "spilled_values", 0) for r in results), default=0
        )
        entry = {
            "loop": loop.name,
            "ops": len(loop.graph.operations),
            "spilled_values": spilled,
            "seconds": seconds,
            "share": seconds / cold_s,
        }
        tail.append(entry)
        ctx.say(
            f"  {entry['loop']}: {entry['ops']} ops, {spilled} spilled, "
            f"{seconds * 1000:.1f} ms, {entry['share']:.1%} of grid time"
        )
    ctx.trace_extra["tail"] = tail
    return {"engine.top5_group_share": sum(t["share"] for t in tail)}


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# proof
# ----------------------------------------------------------------------
def run_proof(ctx: Context) -> dict:
    from repro.check import coverage

    per_loop = len(coverage.CHECK_MODELS)

    def round_loops(index: int) -> list:
        loops, _refs = ctx.suite("proof", index)
        return loops

    pending = round_loops(0)
    ctx.setup_done()
    if ctx.setup_only:
        return {}
    ctx.perturb()

    def prove(loops: list) -> dict:
        stamps: list[float] = []
        begin = time.perf_counter()
        result = coverage.run_static_validation(
            loops=loops,
            latency=suite.LATENCY,
            progress=lambda _done, _total: stamps.append(time.perf_counter()),
        )
        wall = time.perf_counter() - begin
        points = [b - a for a, b in zip([begin] + stamps, stamps)]
        return {
            "attempted": len(result.points),
            "failed": len(result.failures),
            "wall": wall,
            "points": points,
            "loops": [
                (per_loop, sum(points[k:k + per_loop]))
                for k in range(0, len(points), per_loop)
            ],
        }

    rounds: list[dict] = []
    layers: dict[str, float] = {}
    if ctx.tracer is not None:
        baseline = prove(pending)
        traced, _wall = ctx.traced(lambda: prove(round_loops(0)))
        rounds.append(traced)
        layers["trace.overhead_ratio"] = traced["wall"] / baseline["wall"]
        pending = None

    def proof_round() -> None:
        nonlocal pending
        if ctx.tracer is not None:
            rounds.append(ctx.traced(lambda: prove(round_loops(len(rounds))))[0])
        else:
            loops = pending if pending is not None else round_loops(len(rounds))
            pending = None
            rounds.append(prove(loops))

    ctx.rounds(proof_round)
    peak_rss_mb = _own_peak_rss_mb()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall = sum(r["wall"] for r in rounds)
    latencies = [s * 1000.0 for r in rounds for s in r["points"]]
    rates = [r["attempted"] / r["wall"] for r in rounds]
    ctx.say(
        f"proof: {len(rounds)} rounds, {attempted} points proved "
        f"(latency samples), {failed} disproved, {wall:.2f}s, "
        f"{attempted / wall:.1f} points/s overall"
    )
    ctx.say("proof rounds, points/s: " + " ".join(f"{r:.1f}" for r in rates))
    if ctx.tracer is not None:
        run_evaluation_s = ctx.tracer.total_s["pipeline.run_evaluation"]
        layers["check.evaluate_share"] = run_evaluation_s / wall
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "peak_rss_mb": peak_rss_mb,
            "points_per_s": trimmed_rate(
                [loop for r in rounds for loop in r["loops"]], wall
            ),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
        },
        "layers": layers,
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` with default flags and a private cache."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.port: int | None = None
        self.port_file = workdir / "port"
        self.log = open(workdir / "serve.log", "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--port-file", str(self.port_file),
                "--cache-dir", str(workdir / "cache"),
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while True:
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    return
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start ({workdir})")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) so far."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut down over the wire; terminate, then kill, if that fails."""
        if self.process.poll() is None:
            try:
                if self.port is None:
                    raise OSError("no port yet")
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=10
                )
                conn.request("POST", "/v1/shutdown", body=b"{}")
                conn.getresponse().read()
                conn.close()
            except (OSError, http.client.HTTPException):
                self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.log.close()


def closed_loop(port: int, bodies: list[dict]) -> list[dict]:
    """Send every body once over ``SERVE_CLIENTS`` keep-alive connections.

    Each client sends its next request only after the previous reply.
    """
    replies: list[dict] = [{} for _ in bodies]
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            payload = json.dumps(bodies[index]).encode()
            retries = 0
            while True:
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/v1/evaluate", body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=120
                    )
                    retries += 1
                    if retries < 4:
                        continue
                    replies[index] = {"status": 0, "retries": retries,
                                      "latency": time.perf_counter() - start}
                    break
                replies[index] = {
                    "status": response.status,
                    "latency": time.perf_counter() - start,
                    "retries": retries,
                    "result": json.loads(raw).get("result"),
                }
                break
        conn.close()

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


def _answer(result: "dict | None") -> "dict | None":
    """A reply without its cache provenance, for comparing answers."""
    if result is None:
        return None
    return {k: v for k, v in result.items() if k != "cached"}


def run_serve(ctx: Context) -> dict:
    from repro.api import types as api_types
    from repro.api.session import Session

    pending = ctx.serve_bodies(0)
    server = Server(ctx.workdir / "serve-0")
    ctx.setup_done()
    if ctx.setup_only:
        server.stop()
        return {}
    ctx.perturb()

    rounds: list[dict] = []

    def serve_round() -> None:
        nonlocal pending, server
        bodies = pending
        if bodies is None:
            index = len(rounds)
            bodies = ctx.serve_bodies(index)
            server = Server(ctx.workdir / f"serve-{index}")
        pending = None
        try:
            begin = time.perf_counter()
            replies = closed_loop(server.port, bodies)
            wall = time.perf_counter() - begin
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        rounds.append(
            {"bodies": bodies, "replies": replies, "wall": wall, "rss": rss}
        )

    try:
        ctx.rounds(serve_round)
    finally:
        server.stop()

    def replay(bodies: list[dict]) -> tuple[list[dict], list[float]]:
        """The same bodies through an in-process Session, no HTTP."""
        api_types._suite_loops.cache_clear()  # fresh loop objects
        session = Session()
        answers, seconds = [], []
        for request_id, body in enumerate(bodies):
            start = time.perf_counter()
            if ctx.tracer is not None and ctx.tracer.active:
                answer = ctx.tracer.span(
                    "api.submit_dict", session.submit_dict,
                    {**body, "type": "evaluate"}, request=request_id,
                )
            else:
                answer = session.submit_dict({**body, "type": "evaluate"})
            seconds.append(time.perf_counter() - start)
            answers.append(answer)
        return answers, seconds

    attempted = failed = 0
    session_ms: list[float] = []
    layers: dict[str, float] = {}
    for r in rounds:
        start = time.perf_counter()
        answers, seconds = replay(r["bodies"])
        untraced = time.perf_counter() - start
        session_ms.extend(s * 1000.0 for s in seconds)
        twins: dict[str, dict] = {}
        for body, reply, answer in zip(r["bodies"], r["replies"], answers):
            attempted += 1
            got = _answer(reply.get("result"))
            if reply.get("status") != 200 or got != _answer(answer):
                failed += 1
            key = json.dumps(body, sort_keys=True)
            if key in twins and twins[key] != got:
                failed += 1
            twins.setdefault(key, got)
        if ctx.tracer is not None and r is rounds[0]:
            _result, traced = ctx.traced(replay, r["bodies"])
            layers["trace.overhead_ratio"] = traced / untraced

    replies = [reply for r in rounds for reply in r["replies"]]
    latencies = [reply["latency"] * 1000.0 for reply in replies]
    wall = sum(r["wall"] for r in rounds)
    served = sum(reply.get("status") == 200 for reply in replies)
    ctx.say(
        f"serve: {len(rounds)} rounds, {len(replies)} requests (latency "
        f"samples), {wall:.2f}s, {failed} failed or wrong"
    )
    if ctx.tracer is not None:
        hits = [
            reply["latency"] * 1000.0 for reply in replies
            if (reply.get("result") or {}).get("cached")
        ]
        misses = [
            reply["latency"] * 1000.0 for reply in replies
            if not (reply.get("result") or {}).get("cached")
        ]
        layers.update({
            "api.hit_ms_p50": percentile(hits, 50),
            "api.miss_ms_p50": percentile(misses, 50),
            "api.miss_ms_p99": percentile(misses, 99),
            "api.cached_ratio": len(hits) / len(replies),
            "api.retries": sum(reply["retries"] for reply in replies),
            "api.session_ms_p50": percentile(session_ms, 50),
            "api.session_ms_p99": percentile(session_ms, 99),
        })
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
            "points_per_s": served / wall,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
        },
        "layers": layers,
    }


# ----------------------------------------------------------------------
# per-layer metrics and entry point
# ----------------------------------------------------------------------
WORKLOADS = {"grid": run_grid, "proof": run_proof, "serve": run_serve}


def layer_metrics(ctx: Context, outcome: dict) -> dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER``, 0 where absent."""
    tracer = ctx.tracer
    assert tracer is not None
    values: dict[str, float] = {}
    for name in spec.PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls[prefix]
        elif field == "self_s":
            values[name] = tracer.self_s[prefix]
    batches = tracer.calls["engine.execute_batch"]
    gets = tracer.calls["engine.cache_get"]
    attempts = tracer.calls["kernel.attempt"]
    values["engine.points_per_group"] = (
        tracer.counters["engine.execute_batch.points"] / batches
        if batches else 0.0
    )
    values["engine.cache_hit_ratio"] = (
        tracer.counters["engine.cache_get.hits"] / gets if gets else 0.0
    )
    values["kernel.ims_success_ratio"] = (
        tracer.counters["kernel.attempt.success"] / attempts
        if attempts else 0.0
    )
    group_ms = [seconds * 1000.0 for seconds, _j, _r in tracer.groups]
    values["engine.group_ms_p50"] = percentile(group_ms, 50)
    values["engine.group_ms_p95"] = percentile(group_ms, 95)
    values["engine.group_ms_max"] = max(group_ms, default=0.0)
    values["engine.top5_group_share"] = (
        sum(sorted(group_ms)[-5:]) / 1000.0 / ctx.traced_wall_s
        if ctx.traced_wall_s else 0.0
    )
    values["error_rate"] = outcome["failed"] / max(1, outcome["attempted"])
    values.update(outcome["layers"])
    return {name: float(values.get(name, 0.0)) for name in spec.PER_LAYER}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    ctx = Context(args)
    outcome = WORKLOADS[args.workload](ctx)
    report: dict[str, Any] = {"setup_s": ctx.setup_s}
    if not args.setup_only:
        report.update(
            attempted=outcome["attempted"],
            failed=outcome["failed"],
            metrics=outcome["metrics"],
        )
        if ctx.tracer is not None:
            report["layers"] = layer_metrics(ctx, outcome)
            out = TRACE_DIR / f"{args.workload}-seed{args.seed}"
            ctx.tracer.write(
                out,
                {
                    "layers": report["layers"],
                    "traced_wall_s": ctx.traced_wall_s,
                    **ctx.trace_extra,
                },
            )
            ctx.say(f"trace written to {out}")
    for line in ctx.lines:
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
