"""Wire types of the versioned facade: frozen, JSON-round-trippable.

Every request and response of :mod:`repro.api` is a frozen dataclass that
round-trips losslessly through plain JSON-safe dicts::

    request == type(request).from_dict(request.to_dict())

``to_dict`` stamps each message with its ``type`` tag and the
``schema_version`` it was built under; ``from_dict`` rejects unknown
versions (:class:`SchemaVersionError`) and unknown fields, so a client
talking to a newer or older server fails with a diagnosable envelope
instead of silently misreading numbers.  Loops and machines travel as
declarative *specs* (:class:`LoopSpec`, :class:`MachineSpec`) -- names and
parameters, never pickled objects -- which makes every request safe to
log, cache, and send over a socket.

Versioning policy: ``API_SCHEMA_VERSION`` bumps whenever a field changes
meaning, is removed, or is re-typed.  Adding a new optional field with a
default is *not* a bump (old payloads still decode); removing or renaming
one is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar, Iterable, Iterator, TypeVar

T = TypeVar("T", bound="WireMessage")

from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.engine.sweep import NAMED_SWEEPS, SweepSpec, named_sweep
from repro.ir.loop import Loop
from repro.machine.config import (
    MachineConfig,
    clustered_config,
    example_config,
    paper_config,
    pxly,
)
from repro.pipeline.policies import (
    PRESSURE_STRATEGIES,
    get_escalation,
    get_policy,
)
from repro.workloads.kernels import example_loop, kernel_names, make_kernel
from repro.workloads.suite import DEFAULT_SEED, suite_loop

#: Version of the wire schema; see the module docstring for the bump policy.
API_SCHEMA_VERSION = 1

#: Upper bound on suite sizes a request may name.  The paper's scale is
#: ~800 loops; this guards a shared server against a 60-byte request
#: committing it to unbounded compute while holding the session lock.
MAX_SUITE_LOOPS = 10_000


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class ApiError(Exception):
    """Base of every deliberate facade error.

    ``status`` is the HTTP status the ``repro serve`` front-end maps the
    error to; in-process callers just catch the exception types.
    """

    status = 500


class RequestValidationError(ApiError):
    """A request field failed validation (bad name, range, or type)."""

    status = 400


class SchemaVersionError(RequestValidationError):
    """A payload was written under a schema this build does not speak."""

    status = 400


class UnknownExperimentError(ApiError):
    """An :class:`ExperimentRequest` named no registered experiment."""

    status = 404


class PayloadTooLargeError(RequestValidationError):
    """A request body exceeded the front-end's size cap.

    Distinct from a generic validation failure so clients (and load
    balancers) can tell "shrink the body" apart from "fix the fields";
    the serve front-end maps it to HTTP 413.
    """

    status = 413


class ServerSaturatedError(ApiError):
    """The front-end is at capacity (in-flight queue full or rate limited).

    Carries ``retry_after`` (seconds, possibly fractional) so the serve
    layer can emit a ``Retry-After`` header with the 429; in-process
    callers can sleep on it directly.
    """

    status = 429

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise RequestValidationError(message)


def _choice(value: str, known: Iterable[str], what: str) -> None:
    known = tuple(known)
    if value not in known:
        raise RequestValidationError(
            f"unknown {what} {value!r} (known: {', '.join(sorted(known))})"
        )


# ----------------------------------------------------------------------
# Serialization base
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order, derived once."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _encode(value: object) -> object:
    """Recursively lower a wire value to JSON-safe types."""
    if value is None or isinstance(value, (str, int, float)):
        return value  # most values; bool is an int
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            name: _encode(getattr(value, name))
            for name in _field_names(type(value))
        }
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


class WireMessage:
    """Mixin: tagged ``to_dict`` / version-checked ``from_dict``.

    Subclasses set ``KIND`` (the wire tag) and, for fields that JSON
    flattens (tuples, nested specs), a ``_CONVERTERS`` entry restoring the
    declared type; every other field decodes as-is.
    """

    KIND: ClassVar[str]
    _CONVERTERS: ClassVar[dict[str, Callable]] = {}

    def to_dict(self) -> dict:
        data = _encode(self)
        data["type"] = self.KIND
        return data

    @classmethod
    def from_dict(cls: "type[T]", data: dict) -> "T":
        if not isinstance(data, dict):
            raise RequestValidationError(
                f"{cls.KIND} payload must be an object, not "
                f"{type(data).__name__}"
            )
        data = dict(data)
        tag = data.pop("type", cls.KIND)
        if tag != cls.KIND:
            raise RequestValidationError(
                f"payload of type {tag!r} is not a {cls.KIND!r}"
            )
        version = data.pop("schema_version", API_SCHEMA_VERSION)
        if version != API_SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported schema version {version!r} "
                f"(this build speaks {API_SCHEMA_VERSION})"
            )
        names = _field_names(cls)
        unknown = set(data).difference(names)
        if unknown:
            raise RequestValidationError(
                f"{cls.KIND}: unknown field(s) {sorted(unknown)}"
            )
        decoded = {"schema_version": version} if "schema_version" in names else {}
        for name, value in data.items():
            converter = cls._CONVERTERS.get(name)
            decoded[name] = (
                converter(value)
                if converter is not None and value is not None
                else value
            )
        try:
            return cls(**decoded)
        except ApiError:
            raise
        except (TypeError, ValueError) as exc:
            raise RequestValidationError(f"{cls.KIND}: {exc}") from None


def _ints(values: Iterable[object]) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _strs(values: Iterable[object]) -> tuple[str, ...]:
    return tuple(str(v) for v in values)


def _rows(values: Iterable[Iterable[object]]) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in values)


# ----------------------------------------------------------------------
# Loop / machine specs
# ----------------------------------------------------------------------
class _LazySuite:
    """``perfect_club_like(n_loops, seed)``, each loop built on first use.

    Indexing builds only the loop asked for (:func:`suite_loop`), so a
    request naming one loop of a 10,000-loop suite costs one loop, not the
    suite; iterating builds them all, in suite order.
    """

    def __init__(self, n_loops: int, seed: int) -> None:
        self._n_loops = n_loops
        self._seed = seed
        self._loops: dict[int, Loop] = {}

    def __len__(self) -> int:
        return self._n_loops

    def __getitem__(self, index: int) -> Loop:
        if not 0 <= index < self._n_loops:
            raise IndexError(index)
        loop = self._loops.get(index)
        if loop is None:
            # Racing resolvers build equal loops; all of them share one.
            loop = self._loops.setdefault(index, suite_loop(index, self._seed))
        return loop

    def __iter__(self) -> Iterator[Loop]:
        return (self[index] for index in range(self._n_loops))


@lru_cache(maxsize=8)
def _suite_loops(n_loops: int, seed: int) -> _LazySuite:
    """Synthetic suites, shared across spec resolutions, filled lazily."""
    return _LazySuite(n_loops, seed)


@dataclass(frozen=True)
class LoopSpec(WireMessage):
    """A loop named declaratively, resolvable on any peer.

    ``kind="kernel"`` names one of the hand-written kernels
    (:func:`repro.workloads.kernels.kernel_names`); ``kind="suite"`` picks
    loop ``index`` out of the seeded Perfect-Club-like synthetic suite;
    ``kind="example"`` is the Section 4.1 worked example.
    """

    KIND: ClassVar[str] = "loop"

    kind: str = "kernel"
    name: str | None = None
    n_loops: int = 40
    seed: int = DEFAULT_SEED
    index: int = 0
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _choice(self.kind, ("kernel", "suite", "example"), "loop kind")
        if self.kind == "kernel":
            _check(self.name is not None, "kernel loops need a name")
            _choice(self.name, kernel_names(), "kernel")
        elif self.kind == "suite":
            _check(self.n_loops >= 1, "n_loops must be positive")
            _check(
                self.n_loops <= MAX_SUITE_LOOPS,
                f"n_loops must be <= {MAX_SUITE_LOOPS}",
            )
            _check(
                0 <= self.index < self.n_loops,
                f"index {self.index} outside suite of {self.n_loops} loops",
            )

    def resolve(self) -> Loop:
        if self.kind == "kernel":
            return make_kernel(self.name)
        if self.kind == "example":
            return example_loop()
        return _suite_loops(self.n_loops, self.seed)[self.index]


@dataclass(frozen=True)
class MachineSpec(WireMessage):
    """A machine configuration named declaratively.

    ``kind="paper"`` is the Section 5.2 machine at ``latency``;
    ``kind="pxly"`` the Table 1 machine with ``ports`` adders/multipliers;
    ``kind="clustered"`` the Section 4 generalization with ``clusters``
    clusters; ``kind="example"`` the Section 4.1 example machine.
    """

    KIND: ClassVar[str] = "machine"

    kind: str = "paper"
    latency: int = 3
    ports: int = 2
    clusters: int = 2
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _choice(
            self.kind, ("paper", "pxly", "clustered", "example"),
            "machine kind",
        )
        _check(self.latency >= 1, "latency must be >= 1")
        _check(self.ports >= 1, "ports must be >= 1")
        _check(self.clusters >= 1, "clusters must be >= 1")

    def resolve(self) -> MachineConfig:
        """The named configuration, one shared object per distinct spec.

        Fingerprints and lowered machine tables are weakly memoized per
        config object, so handing every request for one machine the same
        long-lived object makes those memos hit instead of rebuilding them
        per request.
        """
        return _machine_config(self)


@lru_cache(maxsize=64)
def _machine_config(spec: MachineSpec) -> MachineConfig:
    if spec.kind == "paper":
        return paper_config(spec.latency)
    if spec.kind == "pxly":
        return pxly(spec.ports, spec.latency)
    if spec.kind == "clustered":
        return clustered_config(spec.clusters, spec.latency)
    return example_config()


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleRequest(WireMessage):
    """Modulo-schedule one loop and report the schedule's shape."""

    KIND: ClassVar[str] = "schedule"
    _CONVERTERS = {
        "loop": LoopSpec.from_dict,
        "machine": MachineSpec.from_dict,
    }

    loop: LoopSpec
    machine: MachineSpec | None = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check(isinstance(self.loop, LoopSpec), "loop must be a LoopSpec")


@dataclass(frozen=True)
class PressureRequest(WireMessage):
    """Measure one loop's register pressure under all models, no budget."""

    KIND: ClassVar[str] = "pressure"
    _CONVERTERS = {
        "loop": LoopSpec.from_dict,
        "machine": MachineSpec.from_dict,
    }

    loop: LoopSpec
    machine: MachineSpec | None = None
    swap_estimator: str | None = None  # None: the session's default
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check(isinstance(self.loop, LoopSpec), "loop must be a LoopSpec")
        if self.swap_estimator is not None:
            _choice(
                self.swap_estimator,
                [e.value for e in SwapEstimator],
                "swap estimator",
            )


@dataclass(frozen=True)
class EvaluateRequest(WireMessage):
    """Run the full schedule/allocate/spill pipeline for one loop.

    ``None`` policy knobs inherit the session's defaults; explicit values
    ride into the engine job (and therefore the cache key) verbatim.
    """

    KIND: ClassVar[str] = "evaluate"
    _CONVERTERS = {
        "loop": LoopSpec.from_dict,
        "machine": MachineSpec.from_dict,
    }

    loop: LoopSpec
    machine: MachineSpec | None = None
    model: str = Model.UNIFIED.value
    register_budget: int | None = None
    swap_estimator: str | None = None
    victim_policy: str | None = None
    pressure_strategy: str | None = None
    ii_escalation: str | None = None
    max_rounds: int = 200
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check(isinstance(self.loop, LoopSpec), "loop must be a LoopSpec")
        _choice(self.model, [m.value for m in Model], "model")
        if self.register_budget is not None:
            _check(self.register_budget >= 1, "register_budget must be >= 1")
        _check(
            1 <= self.max_rounds <= 10_000,
            "max_rounds must be between 1 and 10000",
        )
        if self.swap_estimator is not None:
            _choice(
                self.swap_estimator,
                [e.value for e in SwapEstimator],
                "swap estimator",
            )
        try:
            if self.victim_policy is not None:
                get_policy(self.victim_policy)
            if self.ii_escalation is not None:
                get_escalation(self.ii_escalation)
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from None
        if self.pressure_strategy is not None:
            _choice(
                self.pressure_strategy, PRESSURE_STRATEGIES,
                "pressure strategy",
            )


@dataclass(frozen=True)
class SweepRequest(WireMessage):
    """A named sweep grid with optional per-field overrides.

    ``None`` overrides keep the registered grid's own value, so the wire
    form stays small and a re-registered grid changes behaviour everywhere
    at once.  Arbitrary ad-hoc grids stay an in-process concern: build a
    :class:`repro.engine.sweep.SweepSpec` directly.
    """

    KIND: ClassVar[str] = "sweep"
    _CONVERTERS = {
        "seeds": _ints,
        "latencies": _ints,
        "cluster_counts": _ints,
        "budgets": _ints,
        "models": _strs,
        "victim_policies": _strs,
    }

    name: str = "performance"
    n_loops: int | None = None
    seeds: tuple[int, ...] | None = None
    latencies: tuple[int, ...] | None = None
    cluster_counts: tuple[int, ...] | None = None
    budgets: tuple[int, ...] | None = None
    models: tuple[str, ...] | None = None
    victim_policies: tuple[str, ...] | None = None
    pressure_strategy: str | None = None
    ii_escalation: str | None = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _choice(self.name, NAMED_SWEEPS, "sweep")
        if self.n_loops is not None:
            _check(
                1 <= self.n_loops <= MAX_SUITE_LOOPS,
                f"n_loops must be between 1 and {MAX_SUITE_LOOPS}",
            )
        if NAMED_SWEEPS[self.name].kind == "pressure" and (
            self.victim_policies or self.ii_escalation
        ):
            # Pressure sweeps never spill; silently ignoring the knobs
            # would make a "policy comparison" of identical numbers look
            # meaningful.
            raise RequestValidationError(
                f"victim_policies/ii_escalation have no effect on the "
                f"pressure-kind sweep {self.name!r} (it never spills)"
            )
        try:
            self.to_spec()  # SweepSpec's own validation covers the rest
        except ApiError:
            raise
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from None

    def to_spec(self) -> SweepSpec:
        """The executable grid: the named spec plus non-``None`` overrides."""
        overrides: dict = {}
        for field_name in (
            "n_loops",
            "seeds",
            "latencies",
            "cluster_counts",
            "budgets",
            "victim_policies",
            "pressure_strategy",
            "ii_escalation",
        ):
            value = getattr(self, field_name)
            if value is not None:
                overrides[field_name] = value
        if self.models is not None:
            overrides["models"] = tuple(Model(m) for m in self.models)
        return named_sweep(self.name, **overrides)


@dataclass(frozen=True)
class ExperimentRequest(WireMessage):
    """Run one registered experiment (see :mod:`repro.api.registry`).

    ``params`` is validated against the experiment's declared parameter
    schema -- unknown names and out-of-range values are rejected before
    any work starts.
    """

    KIND: ClassVar[str] = "experiment"
    _CONVERTERS = {"params": dict}

    name: str = "figure6"
    params: dict = field(default_factory=dict)
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check(
            isinstance(self.name, str) and bool(self.name),
            "experiment name must be a non-empty string",
        )
        _check(isinstance(self.params, dict), "params must be an object")


#: Evaluator tiers a ValidateRequest may name (mirrors
#: repro.validate.TIERS; literal here so the wire module stays
#: import-light): ``"batch"`` is the production chain, ``"0"`` the dict
#: reference pipeline.
VALIDATE_TIERS = ("batch", "0")


@dataclass(frozen=True)
class ValidateRequest(WireMessage):
    """Differentially validate one evaluated point by execution.

    The point is re-evaluated under each requested evaluator tier and its
    schedule/allocation executed cycle-by-cycle against the reference
    interpreter (:mod:`repro.validate`); the response reports every
    observed-vs-claimed mismatch with actionable coordinates.
    """

    KIND: ClassVar[str] = "validate"
    _CONVERTERS = {
        "loop": LoopSpec.from_dict,
        "machine": MachineSpec.from_dict,
        "tiers": _strs,
    }

    loop: LoopSpec
    machine: MachineSpec | None = None
    model: str = Model.UNIFIED.value
    register_budget: int | None = None
    tiers: tuple[str, ...] = VALIDATE_TIERS
    iterations: int | None = None
    #: Also prove the point analytically (repro.check) -- the O(ops)
    #: static tier.  On by default; an additive field, no schema bump.
    static: bool = True
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check(isinstance(self.loop, LoopSpec), "loop must be a LoopSpec")
        _choice(self.model, [m.value for m in Model], "model")
        if self.register_budget is not None:
            _check(self.register_budget >= 1, "register_budget must be >= 1")
        _check(len(self.tiers) >= 1, "tiers must not be empty")
        for tier in self.tiers:
            _choice(tier, VALIDATE_TIERS, "kernel tier")
        if self.iterations is not None:
            _check(
                1 <= self.iterations <= 4096,
                "iterations must be between 1 and 4096",
            )


@dataclass(frozen=True)
class ReportRequest(WireMessage):
    """Generate the reproduction artifact through the facade.

    ``out_dir=None`` renders without writing; ``include_text=True`` puts
    the rendered artifact into the response body (it can be large).
    ``check`` records the caller's intent to gate on the result -- the
    response's ``ok`` field carries the verdict either way.

    ``sim_samples`` sizes the sampled simulator cross-check
    (:mod:`repro.validate`); ``None`` runs the default sample when
    ``check`` is set and skips it otherwise, ``0`` disables it outright.
    ``sim_seed`` drives sample selection, so a fixed seed validates the
    same points on every run.  ``static_check`` runs the full-grid
    static proof (:mod:`repro.check`) over 100% of suite points;
    ``None`` follows ``check``.  (New optional fields with defaults:
    not a schema bump per the policy above.)
    """

    KIND: ClassVar[str] = "report"

    n_loops: int = 200
    spill_loops: int | None = None
    fmt: str = "md"
    out_dir: str | None = None
    check: bool = False
    include_text: bool = False
    stamp: bool = True
    sim_samples: int | None = None
    sim_seed: int = DEFAULT_SEED
    static_check: bool | None = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check(self.n_loops >= 1, "n_loops must be positive")
        _check(
            self.n_loops <= MAX_SUITE_LOOPS,
            f"n_loops must be <= {MAX_SUITE_LOOPS}",
        )
        if self.spill_loops is not None:
            _check(
                1 <= self.spill_loops <= MAX_SUITE_LOOPS,
                f"spill_loops must be between 1 and {MAX_SUITE_LOOPS}",
            )
        _choice(self.fmt, ("md", "html"), "report format")
        if self.sim_samples is not None:
            _check(
                0 <= self.sim_samples <= 256,
                "sim_samples must be between 0 and 256",
            )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleResponse(WireMessage):
    KIND: ClassVar[str] = "schedule.response"

    loop_name: str
    machine: str
    ii: int
    mii: int
    res_mii: int
    rec_mii: int
    stage_count: int
    n_ops: int
    kernel: str
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class PressureResponse(WireMessage):
    """Register requirements of one loop under the three finite models."""

    KIND: ClassVar[str] = "pressure.response"

    loop_name: str
    machine: str
    trip_count: int
    ii: int
    mii: int
    unified: int
    partitioned: int
    swapped: int
    max_live: int
    cached: bool = False
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class EvaluateResponse(WireMessage):
    """Final state of one loop under one model and register budget."""

    KIND: ClassVar[str] = "evaluate.response"

    loop_name: str
    machine: str
    model: str
    register_budget: int | None
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
    cycles: int
    traffic_density: float
    cached: bool = False
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class SweepResponse(WireMessage):
    """An executed grid: aggregate rows plus throughput/cache numbers."""

    KIND: ClassVar[str] = "sweep.response"
    _CONVERTERS = {"headers": _strs, "rows": _rows}

    name: str
    kind: str
    description: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    points: int
    elapsed: float
    cache_hits: int
    cache_misses: int
    text: str
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class ExperimentResponse(WireMessage):
    """One experiment's rendered report plus timing."""

    KIND: ClassVar[str] = "experiment.response"
    _CONVERTERS = {"params": dict}

    name: str
    kind: str
    title: str
    params: dict
    seconds: float
    text: str
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class ValidateResponse(WireMessage):
    """Verdict of one differential validation across evaluator tiers."""

    KIND: ClassVar[str] = "validate.response"
    _CONVERTERS = {"tiers": _strs}

    loop_name: str
    machine: str
    model: str
    register_budget: int | None
    tiers: tuple[str, ...]
    points: int
    mismatches: int
    ok: bool
    text: str
    #: Findings of the static proof, already folded into ``mismatches``
    #: and ``ok``; -1 when the caller disabled the static tier.
    static_findings: int = -1
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class ReportResponse(WireMessage):
    """Verdict and summary of one reproduction-artifact run.

    ``ok`` folds the paper-delta gates *and* the sampled simulator
    cross-check; ``sim_points``/``sim_mismatches`` break the latter out
    (both 0 when the cross-check did not run).
    """

    KIND: ClassVar[str] = "report.response"
    _CONVERTERS = {"failed_keys": _strs}

    ok: bool
    n_loops: int
    spill_loops: int | None
    fmt: str
    checks_gated: int
    failed_keys: tuple[str, ...]
    summary: str
    path: str | None
    text: str | None = None
    sim_points: int = 0
    sim_mismatches: int = 0
    sim_summary: str | None = None
    static_points: int = 0
    static_findings: int = 0
    static_summary: str | None = None
    schema_version: int = API_SCHEMA_VERSION


#: Wire tag -> request class, the serve front-end's dispatch table.
REQUEST_TYPES: dict[str, type[WireMessage]] = {
    cls.KIND: cls
    for cls in (
        ScheduleRequest,
        PressureRequest,
        EvaluateRequest,
        SweepRequest,
        ExperimentRequest,
        ValidateRequest,
        ReportRequest,
    )
}

#: Wire tag -> response class, for symmetric client-side decoding.
RESPONSE_TYPES: dict[str, type[WireMessage]] = {
    cls.KIND: cls
    for cls in (
        ScheduleResponse,
        PressureResponse,
        EvaluateResponse,
        SweepResponse,
        ExperimentResponse,
        ValidateResponse,
        ReportResponse,
    )
}

#: Requests the facade accepts, in wire-tag form (= serve endpoint names).
REQUEST_KINDS = tuple(REQUEST_TYPES)


def request_from_dict(data: dict) -> WireMessage:
    """Decode any request payload by its ``type`` tag."""
    if not isinstance(data, dict):
        raise RequestValidationError("request payload must be an object")
    tag = data.get("type")
    if tag not in REQUEST_TYPES:
        raise RequestValidationError(
            f"unknown request type {tag!r} "
            f"(known: {', '.join(REQUEST_KINDS)})"
        )
    return REQUEST_TYPES[tag].from_dict(data)


def response_from_dict(data: dict) -> WireMessage:
    """Decode any response payload by its ``type`` tag."""
    if not isinstance(data, dict):
        raise RequestValidationError("response payload must be an object")
    tag = data.get("type")
    if tag not in RESPONSE_TYPES:
        raise RequestValidationError(f"unknown response type {tag!r}")
    return RESPONSE_TYPES[tag].from_dict(data)


__all__ = [
    "API_SCHEMA_VERSION",
    "ApiError",
    "EvaluateRequest",
    "EvaluateResponse",
    "ExperimentRequest",
    "ExperimentResponse",
    "LoopSpec",
    "MAX_SUITE_LOOPS",
    "MachineSpec",
    "PayloadTooLargeError",
    "PressureRequest",
    "PressureResponse",
    "REQUEST_KINDS",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "ReportRequest",
    "ReportResponse",
    "RequestValidationError",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchemaVersionError",
    "ServerSaturatedError",
    "SweepRequest",
    "SweepResponse",
    "UnknownExperimentError",
    "VALIDATE_TIERS",
    "ValidateRequest",
    "ValidateResponse",
    "WireMessage",
    "request_from_dict",
    "response_from_dict",
]
