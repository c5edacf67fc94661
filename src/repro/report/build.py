"""Orchestrate one reproduction artifact: run, validate, render, write.

``python -m repro report`` lands here.  :func:`generate_report` runs the
full experiment suite through the (cached, parallel) engine, judges every
registered paper expectation, and renders a single self-contained Markdown
or HTML document with a provenance footer.  ``--check`` turns the delta
table into an exit code, making "does this still reproduce the paper?"
a one-command CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.coverage import StaticValidation
    from repro.validate.sampling import SampledValidation

from repro.api.registry import get_experiment
from repro.engine.pool import Engine
from repro.experiments.runner import SuiteResult
from repro.report.document import RENDERERS, Document
from repro.report.expected import (
    Delta,
    evaluate_expectations,
    failed_gates,
    gate_summary,
)
from repro.report.provenance import collect_provenance
from repro.report.sections import build_document

#: Artifact file name per format.
FILENAMES = {"md": "report.md", "html": "report.html"}


@dataclass(frozen=True)
class ReportResult:
    """Everything one ``repro report`` invocation produced."""

    suite: SuiteResult
    deltas: tuple[Delta, ...]
    document: Document
    text: str
    path: Path | None
    #: Sampled simulator cross-check outcome, when it ran (see
    #: :mod:`repro.validate.sampling`); ``None`` otherwise.
    sim: "SampledValidation | None" = None
    #: Full-grid static proof outcome, when it ran (see
    #: :mod:`repro.check.coverage`); covers 100% of suite points where
    #: the simulator samples.  ``None`` otherwise.
    static: "StaticValidation | None" = None

    @property
    def failed(self) -> list[Delta]:
        return failed_gates(self.deltas)

    @property
    def ok(self) -> bool:
        """Paper-delta gates pass, the sampled execution agrees, *and*
        the full-grid static proof holds."""
        return (
            not self.failed
            and (self.sim is None or self.sim.ok)
            and (self.static is None or self.static.ok)
        )

    def summary(self) -> str:
        gated, failed = gate_summary(self.deltas)
        lines = [
            f"checks: {len(gated) - len(failed)}/{len(gated)} "
            "gated expectations pass"
        ]
        for delta in failed:
            lines.append(
                f"  FAIL {delta.expectation.key}: expected "
                f"{delta.expected_display}, reproduced "
                f"{delta.reproduced_display} "
                f"({delta.expectation.paper_ref})"
            )
        if self.sim is not None:
            lines.append(f"sim cross-check: {self.sim.describe()}")
            for mismatch in self.sim.mismatches:
                lines.append("  SIM " + mismatch.describe().replace("\n", " "))
        if self.static is not None:
            lines.append(f"static check: {self.static.describe()}")
            for point in self.static.failures:
                for finding in point.findings:
                    lines.append(
                        "  STATIC "
                        + finding.describe().replace("\n", " ")
                    )
        if self.path is not None:
            lines.append(f"artifact: {self.path}")
        return "\n".join(lines)


def generate_report(
    n_loops: int = 200,
    spill_loops: int | None = None,
    engine: Engine | None = None,
    fmt: str = "md",
    out_dir: Path | str | None = "report",
    stamp: bool = True,
    sim_samples: int = 0,
    sim_seed: int | None = None,
    static_check: bool = False,
) -> ReportResult:
    """Run the suite and build (and optionally write) the artifact.

    ``out_dir=None`` renders without writing (``--check``-only runs).
    ``stamp=False`` omits the generation timestamp, which keeps renders
    byte-reproducible for tests.

    ``sim_samples > 0`` additionally runs the sampled simulator
    cross-check: ``sim_samples`` suite loops -- chosen by one RNG seeded
    with ``sim_seed``, so repeated runs validate the same points -- are
    executed cycle-by-cycle under every model and evaluator tier and checked
    against the analytical claims.  The outcome lands in the provenance
    footer and in :attr:`ReportResult.ok`.

    ``static_check=True`` statically proves **every** point of the
    report's suite grid (dependences, reservation table, allocation,
    spill accounting -- see :mod:`repro.check`) in one proving map on
    ``engine`` (its workers, not its cache); simulation stays sampled
    because it is orders of magnitude more expensive.
    """
    if fmt not in RENDERERS:
        raise ValueError(
            f"unknown format {fmt!r}; expected one of {sorted(RENDERERS)}"
        )
    # The suite runs through the experiment registry -- the same validated
    # entry every API/serve/CLI caller uses.
    suite = get_experiment("suite").run(
        engine=engine, loops=n_loops, spill_loops=spill_loops
    )
    deltas = tuple(evaluate_expectations(suite))
    sim = None
    if sim_samples > 0:
        # Imported lazily, like the registry: repro.validate drives the
        # pipeline and must not join the report's import-time graph.
        from repro.validate import run_sampled_validation
        from repro.workloads.suite import DEFAULT_SEED

        sim = run_sampled_validation(
            n_loops=n_loops,
            samples=sim_samples,
            seed=DEFAULT_SEED if sim_seed is None else sim_seed,
        )
    static = None
    if static_check:
        from repro.check.coverage import run_static_validation

        static = run_static_validation(n_loops=n_loops, engine=engine)
    generated_at = (
        datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
        if stamp
        else None
    )
    provenance = collect_provenance(
        suite,
        generated_at=generated_at,
        sim_check=sim.describe() if sim is not None else None,
        static_check=static.describe() if static is not None else None,
    )
    document = build_document(suite, deltas, provenance)
    text = RENDERERS[fmt](document)
    path = None
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / FILENAMES[fmt]
        path.write_text(text, encoding="utf-8")
    return ReportResult(
        suite=suite,
        deltas=deltas,
        document=document,
        text=text,
        path=path,
        sim=sim,
        static=static,
    )


__all__ = ["FILENAMES", "ReportResult", "generate_report"]
