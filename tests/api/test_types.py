"""Wire-type contracts: lossless JSON round trips, version rejection.

The facade's compatibility promise is mechanical: for every request and
response type, ``from_dict(to_dict(x)) == x`` -- through real JSON, so
tuples survive the list detour -- and payloads from an unknown schema
version die with :class:`SchemaVersionError` instead of being misread.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import types as T
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
from repro.engine.sweep import NAMED_SWEEPS
from repro.pipeline.fingerprint import loop_fingerprint
from repro.pipeline.policies import II_ESCALATIONS, SPILL_POLICIES
from repro.workloads.kernels import kernel_names
from repro.workloads.suite import DEFAULT_SEED, perfect_club_like

MODELS = [m.value for m in Model]
ESTIMATORS = [e.value for e in SwapEstimator]
POLICIES = sorted(SPILL_POLICIES)
ESCALATIONS = sorted(II_ESCALATIONS)

# ----------------------------------------------------------------------
# Strategies: always-valid instances of every wire type
# ----------------------------------------------------------------------
loop_specs = st.one_of(
    st.sampled_from(kernel_names()).map(
        lambda name: T.LoopSpec(kind="kernel", name=name)
    ),
    st.just(T.LoopSpec(kind="example")),
    st.builds(
        lambda n, seed, index: T.LoopSpec(
            kind="suite", n_loops=n, seed=seed, index=index % n
        ),
        st.integers(1, 64),
        st.integers(0, 2**31 - 1),
        st.integers(0, 63),
    ),
)

machine_specs = st.one_of(
    st.builds(
        lambda latency: T.MachineSpec(kind="paper", latency=latency),
        st.integers(1, 8),
    ),
    st.builds(
        lambda ports, latency: T.MachineSpec(
            kind="pxly", ports=ports, latency=latency
        ),
        st.integers(1, 4),
        st.integers(1, 8),
    ),
    st.builds(
        lambda clusters: T.MachineSpec(kind="clustered", clusters=clusters),
        st.integers(1, 4),
    ),
    st.just(T.MachineSpec(kind="example")),
)

maybe_machine = st.one_of(st.none(), machine_specs)

schedule_requests = st.builds(
    T.ScheduleRequest, loop=loop_specs, machine=maybe_machine
)

pressure_requests = st.builds(
    T.PressureRequest,
    loop=loop_specs,
    machine=maybe_machine,
    swap_estimator=st.one_of(st.none(), st.sampled_from(ESTIMATORS)),
)

evaluate_requests = st.builds(
    T.EvaluateRequest,
    loop=loop_specs,
    machine=maybe_machine,
    model=st.sampled_from(MODELS),
    register_budget=st.one_of(st.none(), st.integers(1, 256)),
    swap_estimator=st.one_of(st.none(), st.sampled_from(ESTIMATORS)),
    victim_policy=st.one_of(st.none(), st.sampled_from(POLICIES)),
    ii_escalation=st.one_of(st.none(), st.sampled_from(ESCALATIONS)),
    max_rounds=st.integers(1, 500),
)


@st.composite
def sweep_requests(draw):
    name = draw(st.sampled_from(sorted(NAMED_SWEEPS)))
    pressure_kind = NAMED_SWEEPS[name].kind == "pressure"
    maybe = lambda strategy: draw(st.one_of(st.none(), strategy))  # noqa: E731
    return T.SweepRequest(
        name=name,
        n_loops=maybe(st.integers(1, 64)),
        seeds=maybe(st.tuples(st.integers(0, 2**31 - 1))),
        latencies=maybe(st.sampled_from([(3,), (6,), (3, 6)])),
        budgets=(
            None
            if pressure_kind
            else maybe(st.sampled_from([(16,), (32, 64)]))
        ),
        victim_policies=(
            None
            if pressure_kind
            else maybe(
                st.lists(
                    st.sampled_from(POLICIES), min_size=1, unique=True
                ).map(tuple)
            )
        ),
        ii_escalation=(
            None if pressure_kind else maybe(st.sampled_from(ESCALATIONS))
        ),
    )


experiment_requests = st.builds(
    T.ExperimentRequest,
    name=st.sampled_from(["figure6", "table1", "suite", "rf-size"]),
    params=st.dictionaries(
        st.sampled_from(["loops", "seed"]), st.integers(1, 100), max_size=2
    ),
)

report_requests = st.builds(
    T.ReportRequest,
    n_loops=st.integers(1, 800),
    spill_loops=st.one_of(st.none(), st.integers(1, 200)),
    fmt=st.sampled_from(["md", "html"]),
    out_dir=st.one_of(st.none(), st.just("some/dir")),
    check=st.booleans(),
    include_text=st.booleans(),
    stamp=st.booleans(),
)

responses = st.one_of(
    st.builds(
        T.PressureResponse,
        loop_name=st.text(max_size=12),
        machine=st.text(max_size=8),
        trip_count=st.integers(1, 10_000),
        ii=st.integers(1, 64),
        mii=st.integers(1, 64),
        unified=st.integers(0, 256),
        partitioned=st.integers(0, 256),
        swapped=st.integers(0, 256),
        max_live=st.integers(0, 256),
        cached=st.booleans(),
    ),
    st.builds(
        T.SweepResponse,
        name=st.text(max_size=8),
        kind=st.sampled_from(["pressure", "evaluate"]),
        description=st.text(max_size=20),
        headers=st.lists(st.text(max_size=6), max_size=3).map(tuple),
        rows=st.lists(
            st.tuples(st.text(max_size=4), st.integers(0, 99)), max_size=3
        ).map(tuple),
        points=st.integers(0, 10_000),
        elapsed=st.floats(0, 1e6, allow_nan=False),
        cache_hits=st.integers(0, 10_000),
        cache_misses=st.integers(0, 10_000),
        text=st.text(max_size=40),
    ),
    st.builds(
        T.ReportResponse,
        ok=st.booleans(),
        n_loops=st.integers(1, 800),
        spill_loops=st.one_of(st.none(), st.integers(1, 200)),
        fmt=st.sampled_from(["md", "html"]),
        checks_gated=st.integers(0, 40),
        failed_keys=st.lists(st.text(max_size=8), max_size=3).map(tuple),
        summary=st.text(max_size=40),
        path=st.one_of(st.none(), st.just("report/report.md")),
        text=st.one_of(st.none(), st.text(max_size=40)),
    ),
)

any_request = st.one_of(
    schedule_requests,
    pressure_requests,
    evaluate_requests,
    sweep_requests(),
    experiment_requests,
    report_requests,
)

_ROUND_TRIP_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRoundTrips:
    @given(request=any_request)
    @_ROUND_TRIP_SETTINGS
    def test_request_round_trips_through_json(self, request):
        wire = json.loads(json.dumps(request.to_dict()))
        assert type(request).from_dict(wire) == request

    @given(request=any_request)
    @_ROUND_TRIP_SETTINGS
    def test_generic_decoder_round_trips(self, request):
        wire = json.loads(json.dumps(request.to_dict()))
        assert T.request_from_dict(wire) == request

    @given(response=responses)
    @_ROUND_TRIP_SETTINGS
    def test_response_round_trips_through_json(self, response):
        wire = json.loads(json.dumps(response.to_dict()))
        assert type(response).from_dict(wire) == response
        assert T.response_from_dict(wire) == response

    def test_tuples_survive_the_list_detour(self):
        request = T.SweepRequest(
            name="rf-size", seeds=(1, 2), budgets=(16, 32)
        )
        wire = json.loads(json.dumps(request.to_dict()))
        assert wire["seeds"] == [1, 2]  # JSON has no tuples...
        decoded = T.SweepRequest.from_dict(wire)
        assert decoded.seeds == (1, 2)  # ...but the declared type returns
        assert decoded == request


class TestSchemaVersioning:
    @pytest.mark.parametrize("version", [0, 2, 99, "1", None])
    def test_unknown_versions_rejected(self, version):
        wire = T.PressureRequest(loop=T.LoopSpec(kind="example")).to_dict()
        wire["schema_version"] = version
        with pytest.raises(T.SchemaVersionError):
            T.PressureRequest.from_dict(wire)

    def test_missing_version_defaults_to_current(self):
        wire = T.PressureRequest(loop=T.LoopSpec(kind="example")).to_dict()
        del wire["schema_version"]
        decoded = T.PressureRequest.from_dict(wire)
        assert decoded.schema_version == T.API_SCHEMA_VERSION

    def test_version_rides_every_message(self):
        for cls in (*T.REQUEST_TYPES.values(), *T.RESPONSE_TYPES.values()):
            assert "schema_version" in {
                f.name for f in __import__("dataclasses").fields(cls)
            }, cls


class TestValidation:
    def test_unknown_fields_rejected(self):
        wire = T.ReportRequest().to_dict()
        wire["surprise"] = 1
        with pytest.raises(T.RequestValidationError, match="surprise"):
            T.ReportRequest.from_dict(wire)

    def test_mismatched_type_tag_rejected(self):
        wire = T.ReportRequest().to_dict()
        with pytest.raises(T.RequestValidationError, match="report"):
            T.SweepRequest.from_dict(wire)

    def test_generic_decoder_requires_known_tag(self):
        with pytest.raises(T.RequestValidationError, match="unknown request"):
            T.request_from_dict({"type": "teleport"})
        with pytest.raises(T.RequestValidationError):
            T.request_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="kernel", name="not-a-kernel"),
            dict(kind="suite", n_loops=0),
            dict(kind="suite", n_loops=4, index=4),
            dict(kind="warp"),
        ],
    )
    def test_bad_loop_specs_rejected(self, bad):
        with pytest.raises(T.RequestValidationError):
            T.LoopSpec(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="paper", latency=0),
            dict(kind="pxly", ports=0),
            dict(kind="hexagon"),
        ],
    )
    def test_bad_machine_specs_rejected(self, bad):
        with pytest.raises(T.RequestValidationError):
            T.MachineSpec(**bad)

    def test_bad_evaluate_knobs_rejected(self):
        loop = T.LoopSpec(kind="example")
        with pytest.raises(T.RequestValidationError, match="model"):
            T.EvaluateRequest(loop=loop, model="quantum")
        with pytest.raises(T.RequestValidationError, match="victim"):
            T.EvaluateRequest(loop=loop, victim_policy="rng")
        with pytest.raises(T.RequestValidationError, match="register_budget"):
            T.EvaluateRequest(loop=loop, register_budget=0)

    def test_pressure_sweep_rejects_spill_knobs(self):
        with pytest.raises(T.RequestValidationError, match="never spills"):
            T.SweepRequest(name="pressure", victim_policies=("longest",))
        with pytest.raises(T.RequestValidationError, match="never spills"):
            T.SweepRequest(name="clusters", ii_escalation="geometric")

    def test_unknown_sweep_rejected(self):
        with pytest.raises(T.RequestValidationError, match="unknown sweep"):
            T.SweepRequest(name="warp-speed")

    def test_bad_report_format_rejected(self):
        with pytest.raises(T.RequestValidationError, match="format"):
            T.ReportRequest(fmt="pdf")

    def test_unbounded_suite_sizes_rejected(self):
        """A 60-byte request must not commit a shared server to hours."""
        too_many = T.MAX_SUITE_LOOPS + 1
        with pytest.raises(T.RequestValidationError, match="<="):
            T.ReportRequest(n_loops=too_many)
        with pytest.raises(T.RequestValidationError, match="<="):
            T.LoopSpec(kind="suite", n_loops=too_many)
        with pytest.raises(T.RequestValidationError, match="between"):
            T.SweepRequest(name="performance", n_loops=too_many)
        with pytest.raises(T.RequestValidationError, match="between"):
            T.ReportRequest(spill_loops=too_many)
        with pytest.raises(T.RequestValidationError, match="between"):
            T.EvaluateRequest(
                loop=T.LoopSpec(kind="example"), max_rounds=10**9
            )


class TestSpecResolution:
    def test_kernel_spec_resolves_to_named_loop(self):
        loop = T.LoopSpec(kind="kernel", name="daxpy").resolve()
        assert loop.name == "daxpy"

    def test_suite_spec_resolution_is_deterministic(self):
        spec = T.LoopSpec(kind="suite", n_loops=8, seed=7, index=3)
        assert spec.resolve().name == spec.resolve().name

    def test_sweep_request_to_spec_applies_overrides(self):
        spec = T.SweepRequest(
            name="rf-size", n_loops=5, victim_policies=("first",)
        ).to_spec()
        assert spec.n_loops == 5
        assert spec.victim_policies == ("first",)
        assert spec.name == "rf-size"

    def test_machine_specs_resolve_to_expected_names(self):
        assert T.MachineSpec(kind="paper", latency=6).resolve().name
        assert T.MachineSpec(kind="pxly", ports=2, latency=3).resolve().name

    def test_one_machine_spec_resolves_to_one_object(self):
        spec = T.MachineSpec(kind="paper", latency=6)
        assert spec.resolve() is spec.resolve()
        decoded = T.MachineSpec.from_dict(json.loads(json.dumps(
            spec.to_dict()
        )))
        assert decoded.resolve() is spec.resolve()


class TestSuiteResolution:
    """A suite spec builds its one loop, identical to the full suite's."""

    @pytest.mark.parametrize("seed", [1, 7, DEFAULT_SEED])
    @pytest.mark.parametrize("n_loops", [10, 49, 60, 226])
    def test_every_index_equals_the_materialized_suite(self, n_loops, seed):
        T._suite_loops.cache_clear()
        for index, expected in enumerate(perfect_club_like(n_loops, seed)):
            loop = T.LoopSpec(
                kind="suite", n_loops=n_loops, seed=seed, index=index
            ).resolve()
            assert (
                loop.name,
                loop.trip_count,
                loop.source,
                loop_fingerprint(loop),
            ) == (
                expected.name,
                expected.trip_count,
                expected.source,
                loop_fingerprint(expected),
            ), index

    def test_last_loop_of_a_huge_suite_generates_one_loop(self, monkeypatch):
        from repro.workloads import suite

        calls = []
        original = suite.generate_loop

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(suite, "generate_loop", counting)
        T._suite_loops.cache_clear()
        spec = T.LoopSpec(
            kind="suite", n_loops=T.MAX_SUITE_LOOPS, seed=11,
            index=T.MAX_SUITE_LOOPS - 1,
        )
        loop = spec.resolve()
        assert len(calls) == 1
        synthetic = T.MAX_SUITE_LOOPS - 1 - len(kernel_names())
        assert loop.name == f"synthetic-{synthetic:04d}"

    def test_cache_clear_gives_fresh_loop_objects(self):
        spec = T.LoopSpec(kind="suite", n_loops=60, seed=7, index=55)
        first = spec.resolve()
        assert spec.resolve() is first
        T._suite_loops.cache_clear()
        fresh = spec.resolve()
        assert fresh is not first
        assert loop_fingerprint(fresh) == loop_fingerprint(first)

    def test_iterating_builds_the_whole_suite_in_order(self):
        T._suite_loops.cache_clear()
        loops = list(T._suite_loops(60, 7))
        assert [loop.name for loop in loops] == [
            loop.name for loop in perfect_club_like(60, 7)
        ]
