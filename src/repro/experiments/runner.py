"""Run every experiment and render the paper-shaped reports.

``python -m repro run`` lands here::

    python -m repro run --loops 200                  # quick
    python -m repro run --loops 800 --spill-loops 200  # paper scale
    python -m repro run --loops 800 --workers 8        # pooled

``--spill-loops`` bounds only the spill-pipeline experiments (Figures 8 and
9), which dominate the runtime; the distribution experiments always use the
full requested suite.

Every section declares its grid points, and the suite evaluates all of
them in one :meth:`repro.engine.Engine.map`: points repeated across
sections (Figure 7 reads Figure 6's grid, Figure 9 Figure 8's) are
computed once, each loop's points share one schedule chain, misses fan
out over a multiprocess pool, and with the on-disk cache enabled a
repeated run skips the evaluation work entirely.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

from repro.api.registry import get_experiment, map_sections, suite_sections
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.pool import Engine, serial_engine
from repro.workloads.suite import perfect_club_like


@dataclass(frozen=True)
class SectionRun:
    """One experiment's structured result."""

    key: str  # stable id: "example", "table1", "figure6", ...
    title: str  # the heading the text report prints
    result: object  # the driver's own result type


@dataclass(frozen=True)
class SuiteResult:
    """Every experiment's structured output from one suite run.

    This is the machine-readable form of ``python -m repro run``: the text
    report renders from it (:func:`format_suite`), and the reproduction
    artifact (:mod:`repro.report`) consumes it directly.
    """

    n_loops: int
    spill_loops: int | None
    sections: tuple[SectionRun, ...]
    engine_jobs: int
    cache_summary: str | None
    wall_seconds: float

    def section(self, key: str) -> SectionRun:
        for section in self.sections:
            if section.key == key:
                return section
        raise KeyError(key)

    def result(self, key: str) -> object:
        return self.section(key).result


def run_suite(
    n_loops: int = 200,
    spill_loops: int | None = None,
    engine: Engine | None = None,
) -> SuiteResult:
    """Run every experiment through one engine map; structured results."""
    engine = engine or serial_engine()
    suite = perfect_club_like(n_loops)
    loops = list(suite)
    spill_subset = loops if spill_loops is None else list(
        suite.subset(spill_loops)
    )
    started = time.time()
    # The sections come from the experiment registry, in registration
    # order -- the same drivers and titles the historical hard-coded list
    # carried, so the rendered report is byte-identical.
    sections = suite_sections()
    results = map_sections(
        engine,
        [section.plan(loops, spill_subset) for _, _, section in sections],
    )
    return SuiteResult(
        n_loops=n_loops,
        spill_loops=spill_loops,
        sections=tuple(
            SectionRun(key, title, result)
            for (key, title, _), result in zip(sections, results)
        ),
        engine_jobs=engine.jobs_run,
        cache_summary=engine.cache_summary(),
        wall_seconds=time.time() - started,
    )


def format_suite(suite: SuiteResult) -> str:
    """The classic concatenated text report, rendered from structured data."""
    sections = [
        f"=== {s.title} ===\n\n{get_experiment(s.key).format(s.result)}"
        for s in suite.sections
    ]
    if suite.cache_summary is not None:
        sections.append(
            f"=== Engine ===\n\n{suite.engine_jobs} evaluation points; "
            f"cache {suite.cache_summary}"
        )
    return "\n\n\n".join(sections)


def positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (suite sizes, subsets).

    Rejecting bad values at the parser keeps the failure a one-line usage
    error instead of an empty report or a crash deep in a worker process.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def non_negative_int(text: str) -> int:
    """Argparse type for counts where 0 is meaningful (``--workers 0``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer (got {value})"
        )
    return value


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The suite-size flags of the experiment runner."""
    parser.add_argument("--loops", type=positive_int, default=200)
    parser.add_argument(
        "--spill-loops",
        type=positive_int,
        default=None,
        help="subset size for the spill-pipeline figures (default: all)",
    )


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags shared by the ``run`` and ``sweep`` commands."""
    parser.add_argument(
        "--workers",
        type=non_negative_int,
        default=None,
        help="worker processes (default: one per core; 0 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )


def engine_from_args(args: argparse.Namespace) -> Engine:
    """Build the engine an experiment CLI asked for.

    ``--no-cache`` only disables the *disk* tier; the in-memory cache
    stays for the engine's later maps.  The suite's own cross-section
    sharing (Figures 7 and 9 reading Figure 6's and 8's points) needs
    neither tier: the duplicates resolve inside its one map.
    """
    directory = None if args.no_cache else (
        args.cache_dir or default_cache_dir()
    )
    return Engine(workers=args.workers, cache=ResultCache(directory=directory))


__all__ = [
    "SectionRun",
    "SuiteResult",
    "add_engine_arguments",
    "add_run_arguments",
    "engine_from_args",
    "format_suite",
    "non_negative_int",
    "positive_int",
    "run_suite",
]
