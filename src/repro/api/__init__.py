"""``repro.api`` -- the versioned, typed public facade.

This package is the supported programmatic entry point to the
reproduction: frozen, JSON-round-trippable request/response dataclasses
(:mod:`~repro.api.types`), a stateful :class:`~repro.api.session.Session`
that owns machine defaults, the result cache, and the worker pool, a
discoverable experiment registry (:mod:`~repro.api.registry`), and a
concurrent HTTP/JSON front-end (:mod:`~repro.api.serve`, reachable as
``python -m repro serve``).

In-process::

    from repro.api import EvaluateRequest, LoopSpec, Session

    with Session() as session:
        response = session.evaluate(
            EvaluateRequest(
                loop=LoopSpec(kind="kernel", name="daxpy"),
                model="swapped",
                register_budget=32,
            )
        )
        print(response.ii, response.registers_required)

Over a socket: start ``python -m repro serve``, then POST the same
request's ``to_dict()`` form to ``/v1/evaluate`` -- see ``docs/api.md``
for the wire protocol, error envelopes, and versioning policy.  The CLI
subcommands (``run``/``sweep``/``report``) route through this facade, so
anything the CLI prints is reachable programmatically.
"""

from repro.api.registry import (
    EXPERIMENTS,
    Experiment,
    Param,
    SuiteSection,
    capabilities,
    get_experiment,
    list_experiments,
    register_experiment,
    suite_sections,
)
from repro.api.serve import ReproServer, run_server
from repro.api.session import Session
from repro.api.types import (
    API_SCHEMA_VERSION,
    ApiError,
    EvaluateRequest,
    EvaluateResponse,
    ExperimentRequest,
    ExperimentResponse,
    LoopSpec,
    MachineSpec,
    PayloadTooLargeError,
    PressureRequest,
    PressureResponse,
    REQUEST_KINDS,
    ReportRequest,
    ReportResponse,
    RequestValidationError,
    ScheduleRequest,
    ScheduleResponse,
    SchemaVersionError,
    ServerSaturatedError,
    SweepRequest,
    SweepResponse,
    UnknownExperimentError,
    ValidateRequest,
    ValidateResponse,
    request_from_dict,
    response_from_dict,
)

__all__ = [
    "API_SCHEMA_VERSION",
    "ApiError",
    "EXPERIMENTS",
    "EvaluateRequest",
    "EvaluateResponse",
    "Experiment",
    "ExperimentRequest",
    "ExperimentResponse",
    "LoopSpec",
    "MachineSpec",
    "Param",
    "PayloadTooLargeError",
    "PressureRequest",
    "PressureResponse",
    "REQUEST_KINDS",
    "ReportRequest",
    "ReportResponse",
    "ReproServer",
    "RequestValidationError",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchemaVersionError",
    "ServerSaturatedError",
    "Session",
    "SuiteSection",
    "SweepRequest",
    "SweepResponse",
    "UnknownExperimentError",
    "ValidateRequest",
    "ValidateResponse",
    "capabilities",
    "get_experiment",
    "list_experiments",
    "register_experiment",
    "request_from_dict",
    "response_from_dict",
    "run_server",
    "suite_sections",
]
