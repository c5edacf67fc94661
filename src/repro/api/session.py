"""The facade's stateful entry point: one :class:`Session`, many requests.

A Session owns the things every request needs -- default
:class:`~repro.api.types.MachineSpec`, default pipeline policies, and one
:class:`~repro.engine.pool.Engine` (result cache + worker pool) -- and
dispatches the typed requests of :mod:`repro.api.types` to the core.
Because the engine is shared, concurrent callers (threads in this
process, clients of ``python -m repro serve``) share cache hits and the
worker pool: the second identical request costs a lookup, not a
recomputation.

Thread safety: a session-level lock serializes access to the engine and
cache (their bookkeeping is not thread-safe); parallelism inside one
request still fans out over the engine's worker processes.  The lock is
held only around core evaluation, so request validation and response
serialization stay concurrent.

Every engine-backed request (evaluate, pressure, sweep, experiment) rides
the engine's grid-batched execution: cache misses are grouped per loop
and evaluated against one shared
:class:`repro.kernel.batch.LoopChain`, so an experiment's sweep of models
and budgets over one loop costs one schedule, not one per point.  Response
payloads are bit-identical to per-point execution.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.machine.config import MachineConfig

from repro.api.registry import get_experiment
from repro.api.types import (
    ApiError,
    EvaluateRequest,
    EvaluateResponse,
    ExperimentRequest,
    ExperimentResponse,
    LoopSpec,
    MachineSpec,
    PressureRequest,
    PressureResponse,
    ReportRequest,
    ReportResponse,
    RequestValidationError,
    ScheduleRequest,
    ScheduleResponse,
    SweepRequest,
    SweepResponse,
    ValidateRequest,
    ValidateResponse,
    WireMessage,
)
from repro.core.swapping import SwapEstimator
from repro.engine.cache import ResultCache
from repro.engine.jobs import EvalJob, JobResult, evaluate_job, pressure_job
from repro.engine.pool import Engine
from repro.engine.sweep import (
    SweepOutcome,
    SweepSpec,
    aggregate_rows,
    format_outcome,
    outcome_headers,
    run_sweep,
)


class Session:
    """Owns defaults + engine; turns requests into responses.

    ``engine=None`` builds a private engine: serial (``workers=0``) with
    an in-memory cache by default -- deterministic and hermetic -- or
    disk-backed when ``cache_dir`` is given.  Pass an explicit
    :class:`~repro.engine.pool.Engine` to share cache and workers with
    other machinery (the CLI does exactly that).

    The default machine and policy knobs fill every request field left
    ``None``, so a session configured once evaluates everything under a
    consistent regime.
    """

    def __init__(
        self,
        *,
        engine: Engine | None = None,
        workers: int = 0,
        cache_dir: str | Path | None = None,
        machine: MachineSpec | None = None,
        swap_estimator: str = SwapEstimator.MAXLIVE.value,
        victim_policy: str = "longest",
        pressure_strategy: str = "spill",
        ii_escalation: str = "increment",
    ) -> None:
        if engine is None:
            engine = Engine(
                workers=workers, cache=ResultCache(directory=cache_dir)
            )
        self.engine = engine
        self.machine = machine if machine is not None else MachineSpec()
        self.swap_estimator = swap_estimator
        self.victim_policy = victim_policy
        self.pressure_strategy = pressure_strategy
        self.ii_escalation = ii_escalation
        self._lock = threading.Lock()
        self.requests_served = 0
        #: Optional :class:`repro.api.dispatch.BatchDispatcher`.  When
        #: set (the scale-out serve workers do), single-job requests are
        #: coalesced with concurrent ones into one engine batch instead
        #: of mapping jobs one at a time under the lock.
        self.dispatcher = None
        # Fail on a bad session default now, not on the first request.
        EvalJob(
            kind="pressure",
            loop=LoopSpec(kind="example").resolve(),
            machine=self.machine.resolve(),
            swap_estimator=swap_estimator,
            victim_policy=victim_policy,
            pressure_strategy=pressure_strategy,
            ii_escalation=ii_escalation,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the engine's worker pool; the session stays usable."""
        if self.dispatcher is not None:
            self.dispatcher.close()
            self.dispatcher = None
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _machine(self, spec: MachineSpec | None) -> MachineConfig:
        return (spec if spec is not None else self.machine).resolve()

    def _run_job(self, job: EvalJob) -> tuple[JobResult, bool]:
        """Execute one engine job; returns ``(result, served_from_cache)``.

        With a dispatcher installed the job rides a coalesced batch
        (identical numbers; see :mod:`repro.api.dispatch`); either way
        the ``cached`` flag is the engine's own per-position provenance,
        not a stats-delta guess.
        """
        if self.dispatcher is not None:
            return self.dispatcher.submit(job)
        flags: list[bool] = []
        with self._lock:
            result = self.engine.map([job], cached_flags=flags)[0]
            self.requests_served += 1
        return result, flags[0]

    def stats(self) -> dict:
        """Live session counters (the serve front-end's health payload).

        Deliberately lock-free: health/liveness must answer while a long
        request holds the session lock.  The counters are plain ints read
        atomically; a snapshot taken mid-request may be one event stale,
        which is fine for monitoring.
        """
        cache = (
            self.engine.cache.stats.as_dict()
            if self.engine.cache is not None
            else None
        )
        return {
            "requests_served": self.requests_served,
            "engine_jobs": self.engine.jobs_run,
            "cache": cache,
        }

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Modulo-schedule the named loop; no engine, always computed.

        The schedule is the root state of the loop's chain, the one every
        evaluate and pressure request starts from.
        """
        from repro.kernel.batch import LoopChain
        from repro.sched.mii import minimum_ii

        loop = request.loop.resolve()
        machine = self._machine(request.machine)
        mii = minimum_ii(loop.graph, machine)
        schedule = LoopChain(loop.graph, machine).root.schedule
        with self._lock:
            self.requests_served += 1
        return ScheduleResponse(
            loop_name=loop.name,
            machine=machine.name,
            ii=schedule.ii,
            mii=mii.mii,
            res_mii=mii.res,
            rec_mii=mii.rec,
            stage_count=schedule.stage_count,
            n_ops=loop.size,
            kernel=schedule.format_kernel(),
        )

    def pressure(self, request: PressureRequest) -> PressureResponse:
        """All-model register pressure of one loop, engine-cached."""
        machine = self._machine(request.machine)
        job = pressure_job(
            request.loop.resolve(),
            machine,
            swap_estimator=SwapEstimator(
                request.swap_estimator or self.swap_estimator
            ),
        )
        result, cached = self._run_job(job)
        return PressureResponse(
            loop_name=result.loop_name,
            machine=machine.name,
            trip_count=result.trip_count,
            ii=result.ii,
            mii=result.mii,
            unified=result.unified,
            partitioned=result.partitioned,
            swapped=result.swapped,
            max_live=result.max_live,
            cached=cached,
        )

    def evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        """Full spill-pipeline evaluation of one loop, engine-cached."""
        from repro.core.models import Model

        machine = self._machine(request.machine)
        job = evaluate_job(
            request.loop.resolve(),
            machine,
            Model(request.model),
            request.register_budget,
            swap_estimator=SwapEstimator(
                request.swap_estimator or self.swap_estimator
            ),
            victim_policy=request.victim_policy or self.victim_policy,
            pressure_strategy=(
                request.pressure_strategy or self.pressure_strategy
            ),
            ii_escalation=request.ii_escalation or self.ii_escalation,
            max_rounds=request.max_rounds,
        )
        result, cached = self._run_job(job)
        return EvaluateResponse(
            loop_name=result.loop_name,
            machine=machine.name,
            model=request.model,
            register_budget=request.register_budget,
            trip_count=result.trip_count,
            ii=result.ii,
            mii=result.mii,
            spilled_values=result.spilled_values,
            ii_increases=result.ii_increases,
            fits=result.fits,
            memory_ops_per_iteration=result.memory_ops_per_iteration,
            spill_ops_per_iteration=result.spill_ops_per_iteration,
            memory_bandwidth=result.memory_bandwidth,
            registers_required=result.registers_required,
            cycles=result.cycles,
            traffic_density=result.traffic_density,
            cached=cached,
        )

    @staticmethod
    def _sweep_response(
        spec: SweepSpec, outcome: SweepOutcome
    ) -> SweepResponse:
        return SweepResponse(
            name=spec.name,
            kind=spec.kind,
            description=spec.describe(),
            headers=tuple(outcome_headers(outcome)),
            rows=tuple(tuple(row) for row in aggregate_rows(outcome)),
            points=len(outcome.points),
            elapsed=outcome.elapsed,
            cache_hits=outcome.cache_stats.get("hits", 0),
            cache_misses=outcome.cache_stats.get("misses", 0),
            text=format_outcome(outcome),
        )

    def sweep(
        self, request: SweepRequest, echo_progress: bool = False
    ) -> SweepResponse:
        """Execute a named grid; aggregates plus the rendered report."""
        spec = request.to_spec()
        with self._lock:
            outcome = run_sweep(
                spec, engine=self.engine, echo_progress=echo_progress
            )
            self.requests_served += 1
        return self._sweep_response(spec, outcome)

    def sweep_stream(self, request: SweepRequest) -> Iterator[dict]:
        """Execute a sweep, yielding partial outcomes as points complete.

        A generator of JSON-shaped events (the serve front-end writes
        them as newline-delimited JSON):

        * ``{"event": "point", ...}`` per finished grid point, in
          completion order -- under the default batch tier that means one
          burst per loop group as its shared chain resolves;
        * ``{"event": "result", "response": {...}}`` with the full
          :class:`SweepResponse` dict, exactly what the non-streaming
          endpoint returns;
        * ``{"event": "error", "error": {...}}`` instead of ``result``
          if the sweep fails mid-flight (the envelope matches the
          non-streaming error shape).

        The sweep runs in a worker thread (holding the session lock like
        any other sweep) while the caller's thread drains events, so a
        slow consumer never stalls the engine -- events queue up
        unboundedly, but a sweep's point count is bounded by its spec.
        """
        import queue as _queue

        from repro.engine.sweep import build_points

        spec = request.to_spec()
        points = build_points(spec)  # deterministic: same order run_sweep uses
        total = len(points)
        events: "_queue.SimpleQueue" = _queue.SimpleQueue()

        def on_result(index: int, job: EvalJob, result: JobResult) -> None:
            point = points[index]
            events.put(
                {
                    "event": "point",
                    "index": index,
                    "total": total,
                    "loop": result.loop_name,
                    "machine": point.machine,
                    "model": point.model,
                    "budget": point.budget,
                    "ii": result.ii,
                    "fits": getattr(result, "fits", None),
                }
            )

        def worker() -> None:
            try:
                with self._lock:
                    previous = self.engine.on_result
                    self.engine.on_result = on_result
                    try:
                        outcome = run_sweep(spec, engine=self.engine)
                    finally:
                        self.engine.on_result = previous
                    self.requests_served += 1
                response = self._sweep_response(spec, outcome)
                events.put(
                    {"event": "result", "response": response.to_dict()}
                )
            except Exception as exc:  # noqa: BLE001 - streamed envelope
                status = exc.status if isinstance(exc, ApiError) else 500
                events.put(
                    {
                        "event": "error",
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                            "status": status,
                        },
                    }
                )
            finally:
                events.put(None)

        threading.Thread(
            target=worker, name="repro-sweep-stream", daemon=True
        ).start()
        while True:
            item = events.get()
            if item is None:
                return
            yield item

    def experiment(self, request: ExperimentRequest) -> ExperimentResponse:
        """Run one registry entry; validated params, rendered report."""
        exp = get_experiment(request.name)
        params = exp.validate(request.params)
        with self._lock:
            start = time.perf_counter()
            result = exp.runner(engine=self.engine, **params)
            seconds = time.perf_counter() - start
            self.requests_served += 1
        return ExperimentResponse(
            name=exp.name,
            kind=exp.kind,
            title=exp.title,
            params=params,
            seconds=seconds,
            text=exp.format(result),
        )

    def validate(self, request: ValidateRequest) -> ValidateResponse:
        """Differentially validate one point by cycle-level execution.

        Always computed: the verdict must come from executing *this
        build's* pipeline output, so cached analytical results are
        deliberately bypassed.
        """
        # Runtime-only import (like report's): repro.validate drives the
        # pipeline, which the wire-type layer must not pull in at import.
        from repro.core.models import Model
        from repro.validate import reproducer_spec, validate_point

        loop = request.loop.resolve()
        machine_spec = (
            request.machine if request.machine is not None else self.machine
        )
        machine = machine_spec.resolve()
        model = Model(request.model)
        report = validate_point(
            loop,
            machine,
            model,
            request.register_budget,
            tiers=tuple(request.tiers),
            iterations=request.iterations,
            reproducer=reproducer_spec(
                loop,
                machine,
                model,
                request.register_budget,
                loop_spec=request.loop.to_dict(),
                machine_spec=machine_spec.to_dict(),
            ),
            static=request.static,
        )
        with self._lock:
            self.requests_served += 1
        return ValidateResponse(
            loop_name=loop.name,
            machine=machine.name,
            model=request.model,
            register_budget=request.register_budget,
            tiers=tuple(request.tiers),
            points=len(report.points),
            mismatches=len(report.mismatches),
            ok=report.ok,
            text=report.describe(),
            static_findings=(
                len(report.static.findings)
                if report.static is not None
                else -1
            ),
        )

    def report(self, request: ReportRequest) -> ReportResponse:
        """Generate (and optionally write) the reproduction artifact."""
        # Imported here: repro.report imports the suite runner, which
        # iterates this package's registry -- runtime-only use keeps the
        # import graph acyclic.
        from repro.report.build import generate_report
        from repro.report.expected import gate_summary

        sim_samples = request.sim_samples
        if sim_samples is None:
            # --check implies the sampled simulator cross-check; a plain
            # artifact render skips it (and its footer row) by default.
            from repro.validate import DEFAULT_SAMPLES

            sim_samples = DEFAULT_SAMPLES if request.check else 0
        static_check = request.static_check
        if static_check is None:
            # --check statically proves *all* points (simulation stays
            # sampled); a plain artifact render skips the proof.
            static_check = request.check
        with self._lock:
            result = generate_report(
                n_loops=request.n_loops,
                spill_loops=request.spill_loops,
                engine=self.engine,
                fmt=request.fmt,
                out_dir=request.out_dir,
                stamp=request.stamp,
                sim_samples=sim_samples,
                sim_seed=request.sim_seed,
                static_check=static_check,
            )
            self.requests_served += 1
        gated, failed = gate_summary(result.deltas)
        return ReportResponse(
            ok=result.ok,
            n_loops=request.n_loops,
            spill_loops=request.spill_loops,
            fmt=request.fmt,
            checks_gated=len(gated),
            failed_keys=tuple(d.expectation.key for d in failed),
            summary=result.summary(),
            path=str(result.path) if result.path is not None else None,
            text=result.text if request.include_text else None,
            sim_points=(
                len(result.sim.points) if result.sim is not None else 0
            ),
            sim_mismatches=(
                len(result.sim.mismatches) if result.sim is not None else 0
            ),
            sim_summary=(
                result.sim.describe() if result.sim is not None else None
            ),
            static_points=(
                len(result.static.points)
                if result.static is not None
                else 0
            ),
            static_findings=(
                result.static.findings_count
                if result.static is not None
                else 0
            ),
            static_summary=(
                result.static.describe()
                if result.static is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Generic dispatch
    # ------------------------------------------------------------------
    _HANDLERS = {
        ScheduleRequest: schedule,
        PressureRequest: pressure,
        EvaluateRequest: evaluate,
        SweepRequest: sweep,
        ExperimentRequest: experiment,
        ValidateRequest: validate,
        ReportRequest: report,
    }

    def submit(self, request: WireMessage) -> WireMessage:
        """Dispatch any request type to its handler."""
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            raise RequestValidationError(
                f"unsupported request type {type(request).__name__}"
            )
        return handler(self, request)

    def submit_dict(self, data: dict) -> dict:
        """Wire-form dispatch: dict in, dict out (the serve hot path)."""
        from repro.api.types import request_from_dict

        return self.submit(request_from_dict(data)).to_dict()


__all__ = ["ApiError", "Session"]
