"""Load generation for the serve front-end, shared by bench and CI.

Three pieces, reused by ``python -m repro bench`` (the informational
``serve_single`` scenario), by ``benchmarks/bench_serve.py`` (the
standalone load harness), and by the CI smoke step:

* :func:`build_workload` -- deterministic request bodies off the bench
  grid (:func:`repro.bench.bench_grid`'s loops x models x budgets), in
  loop-major order so concurrently in-flight requests tend to share a
  loop, and with it the session's memoized chain.
* :class:`ServerProcess` -- spawn ``python -m repro serve`` as a
  subprocess, wait for the port file, shut it down cleanly (and verify
  it *was* clean).
* :func:`run_load` -- hammer a URL with N persistent-connection client
  threads sharing one work iterator; collects latency quantiles,
  throughput, cache-hit counts, and honors 429 ``Retry-After``.

Everything here is stdlib-only (``http.client``, ``threading``,
``subprocess``); the harness must not be heavier than the server.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Workload shapes :func:`build_workload` knows how to lay out.
WORKLOADS = ("cold", "warm", "mixed")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def build_workload(
    kind: str = "cold", n_loops: int = 8, latency: int | None = None
) -> list[dict]:
    """Request bodies for ``POST /v1/evaluate`` off the bench grid.

    ``cold``: every grid point once -- all misses on a fresh cache.
    ``warm``: the same bodies (run it against a primed server: all hits).
    ``mixed``: two copies of the grid, deterministically shuffled -- every
    point appears twice, so roughly half the requests are satisfiable
    from the shared cache once its twin has landed.

    Bodies are loop-major (all points of loop *i* adjacent), matching the
    bench driver's order, so whatever slice of the list is in flight at
    once mostly shares a loop -- the case the session's chain memo
    rewards.
    """
    from repro.bench import BUDGETS, LATENCY, MODELS

    if kind not in WORKLOADS:
        raise ValueError(
            f"unknown workload {kind!r} (known: {', '.join(WORKLOADS)})"
        )
    machine = {"kind": "paper", "latency": latency or LATENCY}
    bodies = []
    for index in range(n_loops):
        loop = {"kind": "suite", "n_loops": n_loops, "index": index}
        bodies.append(
            {
                "loop": loop,
                "machine": machine,
                "model": "ideal",
                "register_budget": None,
            }
        )
        for budget in BUDGETS:
            for model in MODELS:
                bodies.append(
                    {
                        "loop": loop,
                        "machine": machine,
                        "model": model.value,
                        "register_budget": budget,
                    }
                )
    if kind == "mixed":
        bodies = bodies + bodies
        # Deterministic interleave: a fixed seed keeps the workload (and
        # therefore the gated ratio's input) identical across runs.
        random.Random(20260808).shuffle(bodies)
    return bodies


@dataclass
class LoadStats:
    """What one :func:`run_load` run observed."""

    requests: int = 0
    errors: int = 0
    throttled: int = 0  # 429 responses (each later retried)
    cached: int = 0  # responses served from the result cache
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list, repr=False)
    error_samples: list[str] = field(default_factory=list)

    @property
    def points_per_sec(self) -> float:
        return self.requests / self.elapsed if self.elapsed else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies, 50) * 1000.0

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies, 99) * 1000.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "throttled": self.throttled,
            "cached": self.cached,
            "elapsed": round(self.elapsed, 4),
            "points_per_sec": round(self.points_per_sec, 1),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
        }


def _parse_url(url: str) -> tuple[str, int]:
    from urllib.parse import urlsplit

    split = urlsplit(url if "//" in url else f"http://{url}")
    return split.hostname or "127.0.0.1", split.port or 80


def run_load(
    url: str,
    bodies: list[dict],
    clients: int = 16,
    op: str = "evaluate",
    timeout: float = 60.0,
    max_attempts: int = 8,
) -> LoadStats:
    """Send every body once via ``clients`` persistent connections.

    Each client thread owns one keep-alive :class:`http.client`
    connection and pulls work off a shared iterator, so the offered
    concurrency is exactly ``clients`` regardless of how the work is
    shaped.  A 429 is honored (sleep ``Retry-After``, retry the same
    body, count it); a transport error reconnects and retries; a body
    that keeps failing after ``max_attempts`` counts as one error and is
    dropped.  Latency is measured per attempt that produced a final
    response, wall time across the whole run.
    """
    host, port = _parse_url(url)
    work = iter(list(enumerate(bodies)))
    work_lock = threading.Lock()
    stats = LoadStats()
    stats_lock = threading.Lock()

    def pull() -> tuple[int, dict] | None:
        with work_lock:
            return next(work, None)

    def client_main() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        local_lat: list[float] = []
        served = throttled = errors = cached = 0
        samples: list[str] = []
        while True:
            item = pull()
            if item is None:
                break
            _index, body = item
            payload = json.dumps(body).encode("utf-8")
            attempts = 0
            while True:
                attempts += 1
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        f"/v1/{op}",
                        body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                    if attempts >= max_attempts:
                        errors += 1
                        if len(samples) < 5:
                            samples.append(f"transport: {exc!r}")
                        break
                    continue
                if response.status == 429:
                    throttled += 1
                    retry_after = float(
                        response.getheader("Retry-After") or 1.0
                    )
                    if attempts >= max_attempts:
                        errors += 1
                        if len(samples) < 5:
                            samples.append("throttled past max_attempts")
                        break
                    time.sleep(min(retry_after, 5.0))
                    continue
                local_lat.append(time.perf_counter() - start)
                if response.status != 200:
                    errors += 1
                    if len(samples) < 5:
                        samples.append(
                            f"HTTP {response.status}: {raw[:200]!r}"
                        )
                    break
                served += 1
                try:
                    if json.loads(raw)["result"].get("cached"):
                        cached += 1
                except (ValueError, KeyError, AttributeError):
                    pass
                break
        conn.close()
        with stats_lock:
            stats.requests += served
            stats.errors += errors
            stats.throttled += throttled
            stats.cached += cached
            stats.latencies.extend(local_lat)
            stats.error_samples.extend(samples)

    threads = [
        threading.Thread(target=client_main, name=f"load-client-{i}")
        for i in range(max(1, clients))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats.elapsed = time.perf_counter() - start
    return stats


class ServerProcess:
    """``python -m repro serve`` as a context-managed subprocess.

    Binds an ephemeral port (discovered via ``--port-file``), exposes
    ``url``, and on exit shuts the server down -- preferring the wire
    protocol (``POST /v1/shutdown``) so the exit is the graceful path
    the server advertises; SIGTERM and kill are the fallbacks.
    ``clean_exit`` records whether the process really exited 0.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        engine_workers: int = 0,
        max_inflight: int | None = None,
        rate_limit: float | None = None,
        extra_args: tuple[str, ...] = (),
        startup_timeout: float = 30.0,
    ) -> None:
        self.cache_dir = cache_dir
        self.engine_workers = engine_workers
        self.max_inflight = max_inflight
        self.rate_limit = rate_limit
        self.extra_args = tuple(extra_args)
        self.startup_timeout = startup_timeout
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.clean_exit: bool | None = None
        self._tmp: tempfile.TemporaryDirectory | None = None

    def __enter__(self) -> "ServerProcess":
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
        port_file = Path(self._tmp.name) / "port.txt"
        cache_dir = self.cache_dir
        if cache_dir is None:
            cache_dir = str(Path(self._tmp.name) / "cache")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--engine-workers",
            str(self.engine_workers),
            "--cache-dir",
            cache_dir,
        ]
        if self.max_inflight is not None:
            argv += ["--max-inflight", str(self.max_inflight)]
        if self.rate_limit is not None:
            argv += ["--rate-limit", str(self.rate_limit)]
        argv += list(self.extra_args)
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", str(Path(__file__).parents[2]))
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            if port_file.exists():
                text = port_file.read_text().strip()
                if text:
                    self.url = f"http://127.0.0.1:{text}"
                    return self
            if self.process.poll() is not None:
                raise RuntimeError(
                    "serve subprocess died during startup:\n"
                    + (self.process.stdout.read() or "")
                )
            time.sleep(0.05)
        self.terminate()
        raise RuntimeError("serve subprocess never wrote its port file")

    def request(
        self, op: str, body: dict | None = None, timeout: float = 10.0
    ) -> tuple[int, dict]:
        """One wire request against the server; returns the envelope."""
        host, port = _parse_url(self.url)
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            if body is None:
                conn.request("GET", f"/v1/{op}")
            else:
                conn.request(
                    "POST",
                    f"/v1/{op}",
                    body=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def shutdown(self, timeout: float = 30.0) -> bool:
        """Graceful stop; returns True when the exit really was clean."""
        if self.process is None:
            return True
        if self.process.poll() is None:
            try:
                self.request("shutdown", {})
            except OSError:
                self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=10)
        self.clean_exit = self.process.returncode == 0
        return self.clean_exit

    def terminate(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)

    def output(self) -> str:
        if self.process is None or self.process.stdout is None:
            return ""
        return self.process.stdout.read() or ""

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.shutdown()
        finally:
            self.terminate()
            if self._tmp is not None:
                self._tmp.cleanup()


__all__ = [
    "LoadStats",
    "ServerProcess",
    "WORKLOADS",
    "build_workload",
    "percentile",
    "run_load",
]
