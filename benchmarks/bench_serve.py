"""Load harness for ``repro serve``: throughput and tail latency.

Spawns real server subprocesses (single-process and scale-out), drives
them with persistent-connection client threads over the bench grid's
evaluate workload, and reports p50/p99 latency, points/second, and the
single-over-sharded wall-time ratio -- the ``serve_single`` /
``serve_throughput`` measurements ``python -m repro bench`` records in
BENCH.json, exposed here with knobs for exploring client counts,
workload shapes, and worker counts.  The ratio mostly reflects the
host's core count and is informational.

Run from the repo root (the repo ships no installer)::

    PYTHONPATH=src python benchmarks/bench_serve.py --loops 24 --clients 64
    PYTHONPATH=src python benchmarks/bench_serve.py --workload warm
    PYTHONPATH=src python benchmarks/bench_serve.py --url http://host:8357
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke

``--smoke`` is the CI mode: a small sharded run that asserts on client
errors, a p99 bound, and a clean server shutdown, exiting non-zero on
any of them.  ``--url`` skips server spawning and hammers an already
running server instead (workload priming and the scale-out comparison
are skipped; the server's cache state is whatever it is).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api.loadtest import (
    ServerProcess,
    WORKLOADS,
    build_workload,
    run_load,
)

#: --smoke: bound on the sharded p99 under ~50 concurrent clients.  The
#: CI host is small and shared, so this is a tripwire for pathological
#: serialization (seconds-long convoys), not a performance promise.
SMOKE_P99_MS = 5000.0
SMOKE_CLIENTS = 50
SMOKE_LOOPS = 8


def _measure(workers: int, bodies, clients: int, engine_workers: int):
    """One fresh server, one load run; returns (stats, clean_exit)."""
    with ServerProcess(
        workers=workers, engine_workers=engine_workers
    ) as server:
        if not bodies:
            raise ValueError("empty workload")
        stats = run_load(server.url, bodies, clients=clients)
        clean = server.shutdown()
    return stats, clean


def _report(label: str, stats, clean=None) -> None:
    line = (
        f"{label:<24} {stats.requests:>6} req "
        f"{stats.points_per_sec:>8.1f} pts/s "
        f"p50 {stats.p50_ms:>7.2f} ms  p99 {stats.p99_ms:>8.2f} ms  "
        f"cached {stats.cached}  throttled {stats.throttled}  "
        f"errors {stats.errors}"
    )
    if clean is not None:
        line += f"  clean_exit={clean}"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loops", type=int, default=24)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="shard processes of the scale-out server (default: 2)",
    )
    parser.add_argument(
        "--engine-workers",
        type=int,
        default=0,
        help="compute workers per serving process (default: 0)",
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="mixed"
    )
    parser.add_argument(
        "--url",
        default=None,
        help="drive an already-running server instead of spawning one",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE", help="write results as JSON"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI mode: small sharded run; exit non-zero on errors, "
            f"p99 > {SMOKE_P99_MS:.0f} ms, or unclean shutdown"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        bodies = build_workload("mixed", SMOKE_LOOPS)
        stats, clean = _measure(
            max(2, args.workers), bodies, SMOKE_CLIENTS, args.engine_workers
        )
        _report(f"smoke (workers={max(2, args.workers)})", stats, clean)
        failures = []
        if stats.errors:
            failures.append(
                f"{stats.errors} client error(s): {stats.error_samples[:3]}"
            )
        if stats.requests != len(bodies):
            failures.append(
                f"served {stats.requests} of {len(bodies)} requests"
            )
        if stats.p99_ms > SMOKE_P99_MS:
            failures.append(
                f"p99 {stats.p99_ms:.1f} ms exceeds {SMOKE_P99_MS:.0f} ms"
            )
        if not clean:
            failures.append("server did not shut down cleanly")
        for failure in failures:
            print(f"smoke failure: {failure}", file=sys.stderr)
        return 1 if failures else 0

    bodies = build_workload(args.workload, args.loops)
    print(
        f"workload {args.workload}: {len(bodies)} requests over "
        f"{args.loops} loops, {args.clients} clients"
    )
    results = {}
    if args.url is not None:
        stats = run_load(args.url, bodies, clients=args.clients)
        _report(f"remote {args.url}", stats)
        results["remote"] = stats.as_dict()
    else:
        single, single_clean = _measure(
            0, bodies, args.clients, args.engine_workers
        )
        _report("single-process", single, single_clean)
        results["serve_single"] = single.as_dict()
        sharded, sharded_clean = _measure(
            args.workers, bodies, args.clients, args.engine_workers
        )
        _report(f"sharded (workers={args.workers})", sharded, sharded_clean)
        results["serve_throughput"] = sharded.as_dict()
        if sharded.elapsed:
            ratio = single.elapsed / sharded.elapsed
            results["serve_scaleout"] = round(ratio, 2)
            print(f"serve_scaleout: {ratio:.2f}x")
        if not (single_clean and sharded_clean):
            print("warning: a server exited uncleanly", file=sys.stderr)
            return 1
        if single.errors or sharded.errors:
            print("warning: client errors observed", file=sys.stderr)
            return 1
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
