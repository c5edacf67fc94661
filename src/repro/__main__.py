"""``python -m repro`` -- experiments, sweeps, reports, serving, cache.

Subcommands::

    python -m repro run --loops 200 --workers 8   # the full paper suite
    python -m repro sweep --name rf-size --loops 64
    python -m repro sweep --loops 8 --workers 2   # default grid, smoke scale
    python -m repro report --loops 200 --format html --out report
    python -m repro report --check   # exit non-zero unless paper reproduced
    python -m repro validate --loops 200 --samples 6   # sim cross-check
    python -m repro validate --kernel daxpy --budget 16
    python -m repro validate --static --loops 200   # prove ALL points, no sim
    python -m repro lint                            # repo invariant lints
    python -m repro serve --port 8357             # the HTTP/JSON API
    python -m repro bench --json BENCH.json --loops 200
    python -m repro bench --baseline benchmarks/baseline-ci.json --loops 8
    python -m repro cache show
    python -m repro cache stats   # entry count and bytes on disk
    python -m repro cache prune   # drop entries orphaned by code edits
    python -m repro cache prune --max-bytes 50000000   # ...and evict to size
    python -m repro cache clear

``run`` is the default: ``python -m repro --loops 200`` still works exactly
as it always has.  Every experiment subcommand routes through the typed
facade (:mod:`repro.api`): one :class:`~repro.api.session.Session` per
invocation, wrapping the cached parallel engine, and the grid/policy
choices below are derived live from the same registries the API serves.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import (
    ApiError,
    ExperimentRequest,
    ReportRequest,
    Session,
    SweepRequest,
    capabilities,
)
from repro.api.serve import DEFAULT_MAX_INFLIGHT
from repro.bench import SCENARIOS as BENCH_SCENARIOS
from repro.bench import main as _bench_main
from repro.engine.cache import ResultCache, default_cache_dir
from repro.experiments.runner import (
    add_engine_arguments,
    add_run_arguments,
    engine_from_args,
    non_negative_int,
    positive_int,
)

#: Default port of ``repro serve`` (no registered meaning; override with
#: ``--port``, or pass 0 for an ephemeral one).
DEFAULT_SERVE_PORT = 8357


def _build_parser() -> argparse.ArgumentParser:
    # One live snapshot of everything a request may name: the CLI's
    # choice lists and the API's discovery endpoints share one source.
    caps = capabilities()

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full experiment suite")
    add_run_arguments(run_p)
    add_engine_arguments(run_p)

    sweep_p = sub.add_parser("sweep", help="run a scenario sweep")
    sweep_p.add_argument(
        "--name",
        default="performance",
        choices=caps["sweeps"],
        help="named sweep grid (default: performance)",
    )
    sweep_p.add_argument(
        "--loops", type=positive_int, default=None, help="suite size override"
    )
    sweep_p.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        help="suite seed(s); repeat the flag to sweep several",
    )
    sweep_p.add_argument(
        "--policy",
        action="append",
        default=None,
        choices=caps["spill_policies"],
        help=(
            "spill victim policy; repeat the flag to sweep several "
            "(default: the sweep's own, usually 'longest')"
        ),
    )
    sweep_p.add_argument(
        "--escalation",
        default=None,
        choices=caps["ii_escalations"],
        help="II escalation strategy when nothing is spillable",
    )
    add_engine_arguments(sweep_p)

    serve_p = sub.add_parser(
        "serve",
        help="serve the typed JSON API over HTTP (one shared session + cache)",
    )
    serve_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port",
        type=non_negative_int,
        default=DEFAULT_SERVE_PORT,
        help=f"TCP port; 0 binds ephemeral (default: {DEFAULT_SERVE_PORT})",
    )
    serve_p.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the bound port to FILE (for scripts; removed on exit)",
    )
    serve_p.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )
    serve_p.add_argument(
        "--engine-workers",
        type=non_negative_int,
        default=0,
        metavar="N",
        help=(
            "compute worker processes of the server's engine (default: "
            "0, i.e. in-process evaluation)"
        ),
    )
    serve_p.add_argument(
        "--max-inflight",
        type=non_negative_int,
        default=DEFAULT_MAX_INFLIGHT,
        metavar="N",
        help=(
            "bound on concurrently admitted requests; over "
            f"it the server answers 429 + Retry-After; 0 disables "
            f"(default: {DEFAULT_MAX_INFLIGHT})"
        ),
    )
    serve_p.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="R",
        help=(
            "token-bucket rate limit, requests/second "
            "sustained; 0 disables (default: 0)"
        ),
    )
    serve_p.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help=(
            "token-bucket burst size (default: max(rate, 1)); only "
            "meaningful with --rate-limit"
        ),
    )
    serve_p.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the on-disk result cache (results are then shared "
            "only within this server process)"
        ),
    )
    serve_p.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )

    report_p = sub.add_parser(
        "report",
        help="generate the self-contained reproduction artifact",
    )
    add_run_arguments(report_p)
    report_p.add_argument(
        "--format",
        dest="fmt",
        default="md",
        choices=("md", "html"),
        help="artifact format (default: md)",
    )
    report_p.add_argument(
        "--out",
        default=None,
        help=(
            "output directory (default: ./report; with --check and no "
            "--out, nothing is written)"
        ),
    )
    report_p.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero when any gated paper expectation falls "
            "outside its tolerance, or when the sampled simulator "
            "cross-check observes a mismatch"
        ),
    )
    report_p.add_argument(
        "--sim-samples",
        type=non_negative_int,
        default=None,
        metavar="N",
        help=(
            "suite loops the simulator cross-check executes (default: 6 "
            "with --check, 0 otherwise; 0 disables it)"
        ),
    )
    report_p.add_argument(
        "--sim-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "sample-selection seed of the simulator cross-check; a fixed "
            "seed validates the same points on every run (default: the "
            "suite seed)"
        ),
    )
    add_engine_arguments(report_p)

    validate_p = sub.add_parser(
        "validate",
        help=(
            "prove schedules/allocations by execution: run sampled suite "
            "points (or one kernel) through the cycle-level simulator and "
            "cross-check II, occupancy, and traffic against the analytics"
        ),
    )
    validate_p.add_argument(
        "--kernel",
        default=None,
        choices=caps["kernels"],
        metavar="NAME",
        help="validate one hand-written kernel under every model",
    )
    validate_p.add_argument(
        "--budget",
        type=positive_int,
        default=None,
        help="register budget for the finite models (default: unlimited)",
    )
    validate_p.add_argument(
        "--loops",
        type=positive_int,
        default=200,
        help="suite size the sample is drawn from (default: 200)",
    )
    validate_p.add_argument(
        "--samples",
        type=positive_int,
        default=6,
        help="sampled suite loops to execute (default: 6)",
    )
    validate_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sample-selection seed (default: the suite seed)",
    )
    validate_p.add_argument(
        "--latency",
        type=positive_int,
        default=6,
        help="paper-machine FP latency to validate under (default: 6)",
    )
    validate_p.add_argument(
        "--iterations",
        type=positive_int,
        default=None,
        help="simulated iterations per point (default: auto from stages)",
    )
    validate_p.add_argument(
        "--static",
        action="store_true",
        help=(
            "statically prove every point of the suite grid (100%% "
            "coverage, no simulation): dependences, reservation table, "
            "allocation, and spill accounting checked analytically"
        ),
    )

    lint_p = sub.add_parser(
        "lint",
        help=(
            "run the repo's AST lint rules (determinism, frozen wire "
            "types, registry completeness, typing)"
        ),
    )
    lint_p.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="source root to lint (default: the installed repro package)",
    )
    lint_p.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named rule(s); repeat the flag for several",
    )
    lint_p.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list the rule catalog and exit",
    )

    bench_p = sub.add_parser(
        "bench",
        help="run the perf scenarios and write a machine-readable snapshot",
    )
    bench_p.add_argument(
        "--loops",
        type=positive_int,
        default=32,
        help="suite size of the benchmark grid (default: 32)",
    )
    bench_p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the snapshot as JSON to FILE",
    )
    bench_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "worker processes for the dispatch and check scenarios "
            "(default: serial)"
        ),
    )
    bench_p.add_argument(
        "--repeats",
        type=positive_int,
        default=1,
        help=(
            "run each scenario N times and keep the fastest (use >= 3 on "
            "noisy/shared hosts; default: 1)"
        ),
    )
    bench_p.add_argument(
        "--scenario",
        action="append",
        default=None,
        choices=BENCH_SCENARIOS,
        help="run only the named scenario(s); repeat the flag for several",
    )
    bench_p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="fail when a ratio regresses against this snapshot",
    )
    bench_p.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional ratio regression (default: 0.25)",
    )

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=("show", "stats", "clear", "prune"))
    cache_p.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    cache_p.add_argument(
        "--max-bytes",
        type=non_negative_int,
        default=None,
        metavar="N",
        help=(
            "with prune: after dropping orphans, evict oldest entries "
            "until the cache fits in N bytes"
        ),
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    request = ExperimentRequest(
        name="suite",
        params={"loops": args.loops, "spill_loops": args.spill_loops},
    )
    with Session(engine=engine_from_args(args)) as session:
        response = session.experiment(request)
    print(response.text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        request = SweepRequest(
            name=args.name,
            n_loops=args.loops,
            seeds=tuple(args.seed) if args.seed else None,
            victim_policies=tuple(args.policy) if args.policy else None,
            ii_escalation=args.escalation,
        )
    except ApiError as exc:
        # e.g. --policy/--escalation on a pressure-kind sweep: the facade
        # rejects knobs that cannot change the numbers.  Its message names
        # the wire fields; the user typed flags, so translate.
        message = str(exc).replace(
            "victim_policies/ii_escalation", "--policy/--escalation"
        )
        print(f"repro sweep: error: {message}", file=sys.stderr)
        return 2
    with Session(engine=engine_from_args(args)) as session:
        response = session.sweep(request, echo_progress=True)
    print(response.text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.workloads.suite import DEFAULT_SEED

    out_dir = args.out
    if out_dir is None:
        out_dir = None if args.check else "report"
    request = ReportRequest(
        n_loops=args.loops,
        spill_loops=args.spill_loops,
        fmt=args.fmt,
        out_dir=out_dir,
        check=args.check,
        sim_samples=args.sim_samples,
        sim_seed=(
            args.sim_seed if args.sim_seed is not None else DEFAULT_SEED
        ),
    )
    with Session(engine=engine_from_args(args)) as session:
        response = session.report(request)
    print(response.summary)
    if args.check and not response.ok:
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.models import Model
    from repro.api import LoopSpec, ValidateRequest
    from repro.validate import run_sampled_validation
    from repro.workloads.suite import DEFAULT_SEED

    if args.static:
        # Full-coverage analytical proof: every suite point, no sampling
        # and no simulation (O(ops) per point -- see repro.check).
        from repro.check import run_static_validation

        result = run_static_validation(
            n_loops=args.loops, latency=args.latency
        )
        print(result.format())
        return 0 if result.ok else 1

    if args.kernel is not None:
        # Single-kernel mode rides the typed facade: one ValidateRequest
        # per model, the same wire shape a serve client would POST.
        failures = 0
        with Session() as session:
            for model in Model:
                budget = None if model is Model.IDEAL else args.budget
                response = session.validate(
                    ValidateRequest(
                        loop=LoopSpec(kind="kernel", name=args.kernel),
                        model=model.value,
                        register_budget=budget,
                        iterations=args.iterations,
                    )
                )
                verdict = "ok" if response.ok else "MISMATCH"
                print(
                    f"{args.kernel} {model.value:<12} "
                    f"budget={budget}: {verdict} "
                    f"({response.points} executions)"
                )
                if not response.ok:
                    print(response.text)
                    failures += 1
        return 1 if failures else 0

    result = run_sampled_validation(
        n_loops=args.loops,
        samples=args.samples,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        latency=args.latency,
        iterations=args.iterations,
    )
    print(result.format())
    return 0 if result.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.check.lint import format_report, list_rules, run_lint

    if args.list_rules:
        for name, doc in list_rules():
            print(f"{name}: {doc}")
        return 0
    report = run_lint(root=args.root, rules=args.rule)
    print(format_report(report))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.serve import ServeConfig, serve

    cache_dir = None
    if not args.no_cache:
        cache_dir = str(args.cache_dir or default_cache_dir())
    return serve(
        ServeConfig(
            host=args.host,
            port=args.port,
            engine_workers=args.engine_workers,
            cache_dir=cache_dir,
            max_inflight=args.max_inflight,
            rate_limit=args.rate_limit,
            burst=args.burst,
            port_file=args.port_file,
            quiet=not args.verbose,
        )
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(directory=args.cache_dir or default_cache_dir())
    if args.action == "show":
        print(cache.describe())
    elif args.action == "stats":
        usage = cache.disk_usage()
        print(f"directory: {usage['directory']}")
        print(f"entries:   {usage['entries']}")
        print(f"bytes:     {usage['bytes']}")
    elif args.action == "prune":
        removed = cache.prune()
        print(f"pruned {removed} orphaned result(s)")
        if args.max_bytes is not None:
            evicted = cache.evict_over_size(args.max_bytes)
            print(
                f"evicted {evicted} result(s) to fit {args.max_bytes} bytes"
            )
    else:
        removed = cache.clear()
        print(f"removed {removed} cached result(s)")
    return 0


#: Single source of truth for dispatch and the backward-compat shim.
HANDLERS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "bench": _bench_main,
    "cache": _cmd_cache,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: ``python -m repro --loops 200`` runs the suite.
    if not argv or (argv[0] not in HANDLERS and argv[0] not in ("-h", "--help")):
        argv.insert(0, "run")
    args = _build_parser().parse_args(argv)
    return HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
