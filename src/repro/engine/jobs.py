"""Declarative evaluation jobs with deterministic content hashing.

An :class:`EvalJob` names one point of an experiment grid: one loop, one
machine, one register-file model, and the pipeline/policy options that
influence the numbers.  Jobs are *content-addressed*: two jobs whose loops
have identical dependence graphs and trip counts, on structurally identical
machines, with the same model and options, hash to the same key -- no matter
which driver built them or in which process.  That key is what the result
cache (:mod:`repro.engine.cache`) and the worker pool
(:mod:`repro.engine.pool`) operate on.

Content fingerprints come from :mod:`repro.pipeline.fingerprint` (the same
hashes key the dict reference's memo).  ``ENGINE_SCHEMA_VERSION`` salts
every key; bump it whenever a change to the pipeline can alter results, and
stale cache entries die naturally.  Every pipeline knob that can change a
number -- victim policy, pressure strategy, II escalation, swap estimator --
rides in the key, so policy sweeps never collide in the cache.

Results are summaries, not pipelines: a :class:`PressureResult` or
:class:`EvalResult` carries exactly the numbers the figure/table drivers
aggregate, and round-trips through JSON for the on-disk cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.ir.loop import Loop
from repro.kernel import batch as kbatch
from repro.machine.config import MachineConfig
from repro.pipeline.fingerprint import (
    digest as _digest,
    graph_fingerprint,
    loop_fingerprint,
    machine_fingerprint,
)
from repro.pipeline.policies import (
    PRESSURE_STRATEGIES,
    get_escalation,
    get_policy,
)

if TYPE_CHECKING:
    from repro.check.invariants import StaticCheck

#: Bump when evaluation semantics change; invalidates every cached result.
#: 2: evaluation runs through the pass pipeline; keys carry the policy knobs.
ENGINE_SCHEMA_VERSION = 2

PRESSURE = "pressure"
EVALUATE = "evaluate"

#: Bound on the chains an :func:`execute_batch` memo keeps.  A serve round
#: of 72 loops fits with room to spare; its chains hold ~2 MiB, and the
#: heaviest grid chain ~1.3 MiB.
CHAIN_MEMO_SIZE = 128


# ----------------------------------------------------------------------
# Source fingerprint (cache self-invalidation on code edits)
# ----------------------------------------------------------------------
def _source_files(root: Path) -> list[Path]:
    """The ``repro`` sources that define evaluation semantics.

    Hidden files/directories (editor locks and swap files such as
    ``.#mod.py``, checkpoint directories) and ``__pycache__`` are excluded:
    they appear and vanish while a sweep runs and carry no semantics.  The
    listing is sorted by POSIX-style relative path, so the resulting digest
    is independent of filesystem enumeration order.
    """
    files = []
    for path in root.rglob("*.py"):
        relative = path.relative_to(root).parts
        if any(
            part.startswith(".") or part == "__pycache__"
            for part in relative
        ):
            continue
        files.append(path)
    return sorted(files, key=lambda p: p.relative_to(root).as_posix())


def tree_fingerprint(root: Path) -> str:
    """Order-independent-input hash of a source tree's ``*.py`` files.

    Each file contributes its relative path and bytes as one atomic unit:
    a file that vanishes mid-walk (concurrent edit) is skipped entirely
    rather than leaving a half-written path-without-content record, so two
    walks over identical trees always agree.
    """
    import hashlib

    digest = hashlib.sha256()
    for path in _source_files(root):
        try:
            content = path.read_bytes()
        except OSError:  # vanished mid-walk: skip the whole record
            continue
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(content)
        digest.update(b"\x00")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Hash of every ``repro`` source file, folded into each job key.

    Cached results must never outlive the code that produced them: editing
    any module retires the whole cache automatically, with no reliance on
    someone remembering to bump ``ENGINE_SCHEMA_VERSION``.
    """
    return tree_fingerprint(Path(__file__).resolve().parent.parent)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalJob:
    """One point of an experiment grid, ready to execute anywhere.

    ``kind`` selects the measurement: ``"pressure"`` is the unlimited-register
    measurement of Figures 6/7 and Table 1; ``"evaluate"`` is the full
    schedule/allocate/spill pipeline of Figures 8/9.  The loop and machine
    ride along as objects (they are cheap to pickle) but the cache key is
    computed from their *content*.  Policy knobs are registry names,
    validated eagerly -- a bad name fails at job construction, not in a
    worker process mid-sweep.
    """

    kind: str
    loop: Loop
    machine: MachineConfig
    model: str = Model.UNIFIED.value
    register_budget: int | None = None
    swap_estimator: str = SwapEstimator.MAXLIVE.value
    victim_policy: str = "longest"
    pressure_strategy: str = "spill"
    ii_escalation: str = "increment"
    max_rounds: int = 200

    def __post_init__(self) -> None:
        if self.kind not in (PRESSURE, EVALUATE):
            raise ValueError(f"unknown job kind {self.kind!r}")
        # Validate every knob early, not in a worker process.
        Model(self.model)
        SwapEstimator(self.swap_estimator)
        get_policy(self.victim_policy)
        get_escalation(self.ii_escalation)
        if self.pressure_strategy not in PRESSURE_STRATEGIES:
            raise ValueError(
                f"unknown pressure strategy {self.pressure_strategy!r}"
            )

    @cached_property
    def key(self) -> str:
        """Deterministic cache key; stable across processes and runs."""
        payload = {
            "schema": ENGINE_SCHEMA_VERSION,
            "source": source_fingerprint(),
            "kind": self.kind,
            "loop": loop_fingerprint(self.loop),
            "machine": machine_fingerprint(self.machine),
            "swap": self.swap_estimator,
        }
        if self.kind == EVALUATE:
            payload.update(
                model=self.model,
                budget=self.register_budget,
                victim=self.victim_policy,
                strategy=self.pressure_strategy,
                escalation=self.ii_escalation,
                rounds=self.max_rounds,
            )
        return _digest(payload)


def pressure_job(
    loop: Loop,
    machine: MachineConfig,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
) -> EvalJob:
    """A Figures-6/7/Table-1 measurement: all models, no budget."""
    return EvalJob(
        kind=PRESSURE,
        loop=loop,
        machine=machine,
        swap_estimator=swap_estimator.value,
    )


def evaluate_job(
    loop: Loop,
    machine: MachineConfig,
    model: Model,
    register_budget: int | None,
    swap_estimator: SwapEstimator = SwapEstimator.MAXLIVE,
    victim_policy: str = "longest",
    pressure_strategy: str = "spill",
    ii_escalation: str = "increment",
    max_rounds: int = 200,
) -> EvalJob:
    """A Figures-8/9 point: one model under one register budget."""
    return EvalJob(
        kind=EVALUATE,
        loop=loop,
        machine=machine,
        model=model.value,
        register_budget=register_budget,
        swap_estimator=swap_estimator.value,
        victim_policy=victim_policy,
        pressure_strategy=pressure_strategy,
        ii_escalation=ii_escalation,
        max_rounds=max_rounds,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PressureResult:
    """Register requirements of one loop under the three finite models."""

    loop_name: str
    trip_count: int
    ii: int
    mii: int
    unified: int
    partitioned: int
    swapped: int
    max_live: int

    def requirement(self, model: Model) -> int:
        if model in (Model.IDEAL, Model.UNIFIED):
            return self.unified
        if model is Model.PARTITIONED:
            return self.partitioned
        return self.swapped


@dataclass(frozen=True)
class EvalResult:
    """Final state of one loop under one model and register budget.

    Field-compatible (duck-typed) with the aggregation surface of
    :class:`repro.spill.spiller.LoopEvaluation`, so the performance and
    traffic aggregates accept either.
    """

    loop_name: str
    trip_count: int
    ii: int
    mii: int
    spilled_values: int
    ii_increases: int
    fits: bool
    memory_ops_per_iteration: int
    spill_ops_per_iteration: int
    memory_bandwidth: int
    registers_required: int
    #: The point's static proof, on the results of a proving
    #: :func:`execute_batch`; ``None`` otherwise.  Never cached and never
    #: compared: two results with equal numbers are equal results.
    proof: "StaticCheck | None" = field(default=None, compare=False)

    @property
    def cycles(self) -> int:
        """Steady-state execution cycles: trip count times the final II."""
        return self.trip_count * self.ii

    @property
    def traffic_density(self) -> float:
        """Average fraction of the memory bus used per cycle."""
        return self.memory_ops_per_iteration / (
            self.ii * self.memory_bandwidth
        )


JobResult = PressureResult | EvalResult


def execute_job(job: EvalJob) -> JobResult:
    """The job's result on the dict reference, point by point.

    Production never calls this: every job walks a chain
    (:func:`execute_batch`).  It is the tests' adapter from a job to
    :func:`repro.pipeline.pipelines.run_evaluation` /
    :func:`~repro.pipeline.pipelines.run_pressure`, so the reference is
    imported here, off the engine's import graph.
    """
    from repro.pipeline.pipelines import run_evaluation, run_pressure

    if job.kind == PRESSURE:
        report = run_pressure(
            job.loop,
            job.machine,
            swap_estimator=SwapEstimator(job.swap_estimator),
        )
        return PressureResult(
            loop_name=job.loop.name,
            trip_count=job.loop.trip_count,
            ii=report.ii,
            mii=report.mii,
            unified=report.unified,
            partitioned=report.partitioned,
            swapped=report.swapped,
            max_live=report.max_live,
        )
    evaluation = run_evaluation(
        job.loop,
        job.machine,
        Model(job.model),
        job.register_budget,
        swap_estimator=SwapEstimator(job.swap_estimator),
        max_rounds=job.max_rounds,
        victim_policy=job.victim_policy,
        pressure_strategy=job.pressure_strategy,
        ii_escalation=job.ii_escalation,
    )
    return EvalResult(
        loop_name=job.loop.name,
        trip_count=job.loop.trip_count,
        ii=evaluation.ii,
        mii=evaluation.mii,
        spilled_values=evaluation.spilled_values,
        ii_increases=evaluation.ii_increases,
        fits=evaluation.fits,
        memory_ops_per_iteration=evaluation.memory_ops_per_iteration,
        spill_ops_per_iteration=evaluation.spill_ops_per_iteration,
        memory_bandwidth=job.machine.memory_bandwidth,
        registers_required=evaluation.requirement.registers,
    )


#: Graph and machine fingerprints plus the victim/strategy/escalation knobs.
BatchKey = tuple[str, str, str, str, str]


def batch_key(job: EvalJob) -> BatchKey:
    """Grouping key of the batch planner: jobs sharing it share a chain.

    These are the same content fingerprints that key the job cache
    (memoized per object, so a grid derives each loop's hash once, not
    once per point).  Model, budget,
    estimator and trip count are deliberately absent: they vary *within*
    a chain's walks.  Structurally identical loops with different names
    share one chain; :func:`repro.engine.pool.run_jobs` relabels results.
    """
    return (
        graph_fingerprint(job.loop.graph),
        machine_fingerprint(job.machine),
        job.victim_policy,
        job.pressure_strategy,
        job.ii_escalation,
    )


#: The chain memo :func:`execute_batch` walks in the current context:
#: a :class:`repro.api.session.Session` lends its memo around the
#: ``Engine.map`` of its point requests (:func:`lent_chains`).  Everywhere
#: else -- ``Engine.map`` of sweeps, experiments and reports, pool
#: workers, a bare ``run_jobs`` -- it is ``None``, and every group builds
#: a fresh chain.  A context variable rather than a parameter, because
#: ``execute_batch(jobs)`` is a one-argument seam that ``perfbench``
#: wraps and fault-injects.
_lent_chains: ContextVar[dict[BatchKey, kbatch.LoopChain] | None] = (
    ContextVar("lent_chains", default=None)
)


@contextmanager
def lent_chains(chains: dict[BatchKey, kbatch.LoopChain]) -> Iterator[None]:
    """Let :func:`execute_batch` calls in this context walk ``chains``."""
    token = _lent_chains.set(chains)
    try:
        yield
    finally:
        _lent_chains.reset(token)


def execute_batch(
    jobs: Sequence[EvalJob], prove: bool = False
) -> list[JobResult]:
    """Execute one :func:`batch_key` group against one shared chain.

    The schedule-stage artifacts (MII, modulo schedule, lifetimes, live
    profiles) are computed once per chain *state* and shared by every
    (model, budget) walk -- see :mod:`repro.kernel.batch`.  Every victim
    policy is a key the chain calls, so every group walks one.

    ``prove=True`` materializes each evaluate job's exit node in the same
    walk (:meth:`~repro.kernel.batch.LoopChain.materialize`) and proves it
    (:func:`repro.check.coverage.prove_point`): the result carries that
    :class:`~repro.check.invariants.StaticCheck` as its ``proof``, with
    the default reproducer the caller may replace.  Without it no
    artifact is lifted and the checker is never imported.

    Inside :func:`lent_chains`, the group walks the lent memo's chain for
    its :func:`batch_key` if there is one, so a loop's later groups reuse
    the nodes its earlier ones computed.  The memo is kept in
    least-recently-used-first order and bounded by ``CHAIN_MEMO_SIZE``.
    A chain leaves the memo while it is walked and returns only when the
    walk finished, so a walk that raises evicts it.
    """
    if prove:
        from repro.check.coverage import prove_point
    first = jobs[0]
    chain = None
    chains = _lent_chains.get()
    if chains is not None:
        key = batch_key(first)
        chain = chains.pop(key, None)
    if chain is None:
        chain = kbatch.LoopChain(
            first.loop.graph,
            first.machine,
            victim_policy=first.victim_policy,
            pressure_strategy=first.pressure_strategy,
            ii_escalation=first.ii_escalation,
        )
    results: list[JobResult] = []
    for job in jobs:
        if job.kind == PRESSURE:
            pressure = chain.pressure(SwapEstimator(job.swap_estimator))
            results.append(
                PressureResult(
                    loop_name=job.loop.name,
                    trip_count=job.loop.trip_count,
                    ii=pressure.ii,
                    mii=pressure.mii,
                    unified=pressure.unified,
                    partitioned=pressure.partitioned,
                    swapped=pressure.swapped,
                    max_live=pressure.max_live,
                )
            )
            continue
        model = Model(job.model)
        estimator = SwapEstimator(job.swap_estimator)
        proof = None
        if prove:
            evaluation, lifted = chain.materialize(
                job.loop, model, job.register_budget, estimator,
                max_rounds=job.max_rounds,
            )
            proof = prove_point(evaluation, lifted)
        else:
            evaluation = chain.evaluate(
                model, job.register_budget, estimator,
                max_rounds=job.max_rounds,
            )
        results.append(
            EvalResult(
                loop_name=job.loop.name,
                trip_count=job.loop.trip_count,
                ii=evaluation.ii,
                mii=evaluation.mii,
                spilled_values=evaluation.spilled_values,
                ii_increases=evaluation.ii_increases,
                fits=evaluation.fits,
                memory_ops_per_iteration=evaluation.memory_ops,
                spill_ops_per_iteration=evaluation.spill_ops,
                memory_bandwidth=job.machine.memory_bandwidth,
                registers_required=evaluation.registers,
                proof=proof,
            )
        )
    if chains is not None:
        chains[key] = chain  # most recently used last
        while len(chains) > CHAIN_MEMO_SIZE:
            del chains[next(iter(chains))]
    return results


def result_to_dict(result: JobResult) -> dict:
    """JSON-serializable form for the on-disk cache."""
    # Flat: every field but an evaluation's proof, which is never cached,
    # is a scalar.
    data = dict(vars(result))
    data.pop("proof", None)
    data["kind"] = PRESSURE if isinstance(result, PressureResult) else EVALUATE
    return data


def result_from_dict(data: dict) -> JobResult:
    """Inverse of :func:`result_to_dict`; raises on malformed payloads."""
    data = dict(data)
    kind = data.pop("kind")
    if kind == PRESSURE:
        return PressureResult(**data)
    if kind == EVALUATE:
        return EvalResult(**data)
    raise ValueError(f"unknown result kind {kind!r}")


__all__ = [
    "BatchKey",
    "CHAIN_MEMO_SIZE",
    "ENGINE_SCHEMA_VERSION",
    "EVALUATE",
    "EvalJob",
    "EvalResult",
    "JobResult",
    "PRESSURE",
    "PressureResult",
    "batch_key",
    "evaluate_job",
    "execute_batch",
    "execute_job",
    "graph_fingerprint",
    "lent_chains",
    "loop_fingerprint",
    "machine_fingerprint",
    "pressure_job",
    "result_from_dict",
    "result_to_dict",
    "source_fingerprint",
    "tree_fingerprint",
]
