"""The serve front-end: routes, envelopes, shared cache, shutdown."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import API_SCHEMA_VERSION, Session
from repro.api.serve import (
    LISTEN_BACKLOG,
    MAX_BODY_BYTES,
    ReproServer,
    ServeConfig,
)


#: How often the test servers' loops check for shutdown; the stdlib
#: default (0.5 s) would add half a second to every teardown.
POLL_INTERVAL = 0.01


def _serve_thread(instance):
    thread = threading.Thread(
        target=instance.serve_forever,
        kwargs={"poll_interval": POLL_INTERVAL},
        daemon=True,
    )
    thread.start()
    return thread


def _spawn(config: ServeConfig | None = None):
    session = Session()
    instance = ReproServer(
        ("127.0.0.1", 0), session, config=config
    )
    return session, instance, _serve_thread(instance)


def _teardown(session, instance, thread):
    instance.shutdown()
    thread.join(timeout=10)
    instance.server_close()
    session.close()


@pytest.fixture()
def server():
    session, instance, thread = _spawn()
    yield instance
    _teardown(session, instance, thread)


def _request(server, method, path, body=None, raw=None):
    """Returns ``(status, decoded_envelope)`` without raising on 4xx/5xx."""
    data = raw
    if body is not None:
        data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


PRESSURE = {"loop": {"kind": "kernel", "name": "daxpy"}}
EVALUATE = {
    "loop": {"kind": "kernel", "name": "hydro_fragment"},
    "model": "swapped",
    "register_budget": 16,
}


class TestRoutes:
    def test_health_reports_serving_and_counters(self, server):
        status, body = _request(server, "GET", "/v1/health")
        assert status == 200 and body["ok"]
        assert body["result"]["status"] == "serving"
        assert body["result"]["schema_version"] == API_SCHEMA_VERSION
        assert "cache" in body["result"]

    def test_discovery_endpoints(self, server):
        status, body = _request(server, "GET", "/v1/experiments")
        assert status == 200
        assert {e["name"] for e in body["result"]} >= {"figure6", "suite"}
        status, body = _request(server, "GET", "/v1/capabilities")
        assert status == 200
        assert "spill_policies" in body["result"]

    def test_pressure_round_trip(self, server):
        status, body = _request(server, "POST", "/v1/pressure", PRESSURE)
        assert status == 200 and body["ok"]
        result = body["result"]
        assert result["type"] == "pressure.response"
        assert result["unified"] >= result["partitioned"] >= 1

    def test_experiment_endpoint(self, server):
        status, body = _request(
            server, "POST", "/v1/experiment",
            {"name": "cost", "params": {"registers": 32}},
        )
        assert status == 200
        assert "organization" in body["result"]["text"]

    def test_sweep_endpoint(self, server):
        status, body = _request(
            server, "POST", "/v1/sweep", {"name": "rf-size", "n_loops": 3}
        )
        assert status == 200
        assert body["result"]["points"] > 0
        assert len(body["result"]["headers"]) == len(
            body["result"]["rows"][0]
        )


class TestErrorEnvelopes:
    def test_unknown_route_is_404_envelope(self, server):
        status, body = _request(server, "POST", "/v1/teleport", {})
        assert status == 404 and not body["ok"]
        assert body["error"]["type"] == "NotFound"
        status, body = _request(server, "GET", "/v1/teleport")
        assert status == 404 and not body["ok"]

    def test_unknown_schema_version_is_400(self, server):
        payload = dict(PRESSURE, schema_version=99)
        status, body = _request(server, "POST", "/v1/pressure", payload)
        assert status == 400
        assert body["error"]["type"] == "SchemaVersionError"
        assert "99" in body["error"]["message"]

    def test_validation_error_is_400(self, server):
        payload = dict(EVALUATE, register_budget=0)
        status, body = _request(server, "POST", "/v1/evaluate", payload)
        assert status == 400
        assert body["error"]["type"] == "RequestValidationError"

    def test_unknown_experiment_is_404(self, server):
        status, body = _request(
            server, "POST", "/v1/experiment", {"name": "figure0"}
        )
        assert status == 404
        assert body["error"]["type"] == "UnknownExperimentError"

    def test_malformed_json_is_400_not_a_trace(self, server):
        status, body = _request(
            server, "POST", "/v1/pressure", raw=b"{not json"
        )
        assert status == 400
        assert "not JSON" in body["error"]["message"]

    def test_non_object_body_is_400(self, server):
        status, body = _request(server, "POST", "/v1/pressure", body=[1, 2])
        assert status == 400

    def test_report_out_dir_rejected_over_the_wire(self, server):
        """A network peer must not write files with server privileges."""
        status, body = _request(
            server, "POST", "/v1/report",
            {"n_loops": 1, "out_dir": "/tmp/owned"},
        )
        assert status == 400
        assert "out_dir" in body["error"]["message"]
        assert "include_text" in body["error"]["message"]

    def test_negative_content_length_is_400_not_a_hang(self, server):
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/pressure HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: -1\r\n"
                b"\r\n"
            )
            head = sock.recv(64)
        assert b"400" in head.split(b"\r\n", 1)[0]

    def test_oversized_body_is_413(self, server):
        status, body = _request(
            server,
            "POST",
            "/v1/pressure",
            raw=b" " * (MAX_BODY_BYTES + 1),
        )
        assert status == 413
        assert body["error"]["type"] == "PayloadTooLargeError"
        assert body["error"]["status"] == 413
        # The envelope is diagnosable: it names both sizes.
        assert str(MAX_BODY_BYTES) in body["error"]["message"]
        assert str(MAX_BODY_BYTES + 1) in body["error"]["message"]


class TestSharedCache:
    def test_second_identical_request_is_a_cache_hit(self, server):
        _, first = _request(server, "POST", "/v1/evaluate", EVALUATE)
        _, second = _request(server, "POST", "/v1/evaluate", EVALUATE)
        assert first["result"]["cached"] is False
        assert second["result"]["cached"] is True
        assert first["result"]["ii"] == second["result"]["ii"]

    def test_concurrent_clients_share_one_cache(self, server):
        """Two clients hammering identical points: one set of evaluations."""
        def client(_):
            return [
                _request(server, "POST", "/v1/evaluate", EVALUATE)[1][
                    "result"
                ]
                for _ in range(3)
            ]

        with ThreadPoolExecutor(max_workers=2) as pool:
            streams = list(pool.map(client, range(2)))
        results = [r for stream in streams for r in stream]
        assert len({r["ii"] for r in results}) == 1
        # 6 requests for one point: exactly one computed it.
        assert sum(not r["cached"] for r in results) == 1
        _, health = _request(server, "GET", "/v1/health")
        assert health["result"]["cache"]["hits"] >= 5
        assert health["result"]["requests_served"] >= 6


class TestSocketLatency:
    """Cache hits cost milliseconds on the wire, not a delayed-ACK wait."""

    def test_listen_backlog_absorbs_bursts(self, server):
        assert server.request_queue_size == LISTEN_BACKLOG

    def test_warm_keepalive_hits_skip_the_delayed_ack_floor(self, server):
        # Headers and body leave as two writes; with Nagle's algorithm on,
        # the body waits for the client's delayed ACK, ~40 ms per request.
        body = json.dumps(EVALUATE).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            elapsed = []
            for _ in range(21):
                start = time.perf_counter()
                connection.request("POST", "/v1/evaluate", body, headers)
                response = connection.getresponse()
                envelope = json.loads(response.read())
                elapsed.append(time.perf_counter() - start)
                assert response.status == 200 and envelope["ok"]
        finally:
            connection.close()
        warm = elapsed[1:]  # the first request computes and caches
        assert envelope["result"]["cached"] is True
        assert statistics.median(warm) < 0.02, warm


class TestBackpressure:
    def test_rate_limit_answers_429_with_retry_after(self):
        session, instance, thread = _spawn(
            ServeConfig(rate_limit=0.25, burst=1.0)
        )
        try:
            first = _request(instance, "POST", "/v1/pressure", PRESSURE)
            assert first[0] == 200
            status, body = _request(
                instance, "POST", "/v1/pressure", PRESSURE
            )
            assert status == 429 and not body["ok"]
            assert body["error"]["type"] == "ServerSaturatedError"
            assert "rate limit" in body["error"]["message"]
        finally:
            _teardown(session, instance, thread)

    def test_retry_after_header_is_present_and_positive(self):
        session, instance, thread = _spawn(
            ServeConfig(rate_limit=0.25, burst=1.0)
        )
        try:
            _request(instance, "POST", "/v1/pressure", PRESSURE)
            request = urllib.request.Request(
                f"http://127.0.0.1:{instance.port}/v1/pressure",
                data=json.dumps(PRESSURE).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            error = excinfo.value
            error.read()
            assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
        finally:
            _teardown(session, instance, thread)

    def test_health_is_exempt_from_rate_limiting(self):
        session, instance, thread = _spawn(
            ServeConfig(rate_limit=0.25, burst=1.0)
        )
        try:
            _request(instance, "POST", "/v1/pressure", PRESSURE)
            for _ in range(3):
                status, body = _request(instance, "GET", "/v1/health")
                assert status == 200 and body["ok"]
        finally:
            _teardown(session, instance, thread)

    def test_inflight_gate_refuses_over_capacity(self):
        from repro.api.dispatch import InflightGate

        session, instance, thread = _spawn(ServeConfig(max_inflight=1))
        try:
            assert isinstance(instance.gate, InflightGate)
            # Hold the single slot open, then poke a request through.
            assert instance.gate.try_enter()
            status, body = _request(
                instance, "POST", "/v1/pressure", PRESSURE
            )
            assert status == 429
            assert "capacity" in body["error"]["message"]
            instance.gate.exit()
            status, _ = _request(instance, "POST", "/v1/pressure", PRESSURE)
            assert status == 200
        finally:
            _teardown(session, instance, thread)


class TestStreaming:
    def test_stream_emits_points_then_result(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/sweep?stream=1",
            data=json.dumps({"name": "rf-size", "n_loops": 3}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            assert response.status == 200
            assert "ndjson" in response.headers["Content-Type"]
            events = [json.loads(line) for line in response if line.strip()]
        assert all(e["ok"] for e in events)
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "result"
        points = [e for e in events if e["event"] == "point"]
        assert len(points) == events[-1]["response"]["points"]
        assert {p["index"] for p in points} == set(range(len(points)))
        assert all(p["total"] == len(points) for p in points)
        # The trailing result is exactly the non-streaming payload.
        status, plain = _request(
            server, "POST", "/v1/sweep", {"name": "rf-size", "n_loops": 3}
        )
        assert status == 200
        streamed = dict(events[-1]["response"])
        expected = dict(plain["result"])
        for volatile in ("elapsed", "cache_hits", "cache_misses", "text"):
            streamed.pop(volatile), expected.pop(volatile)
        assert streamed == expected

    def test_stream_request_validation_still_an_http_error(self, server):
        status, body = _request(
            server, "POST", "/v1/sweep?stream=1", {"name": "no-such-sweep"}
        )
        assert status == 400 and not body["ok"]

    def test_stream_flag_off_is_plain_response(self, server):
        status, body = _request(
            server, "POST", "/v1/sweep?stream=0",
            {"name": "rf-size", "n_loops": 3},
        )
        assert status == 200 and body["ok"]
        assert body["result"]["points"] > 0


class TestHealthDetails:
    def test_health_reports_worker_pool_and_disk_cache(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.pool import Engine

        session = Session(
            engine=Engine(cache=ResultCache(directory=tmp_path / "cache"))
        )
        config = ServeConfig(workers=0, max_inflight=7, cache_dir="x")
        instance = ReproServer(("127.0.0.1", 0), session, config=config)
        thread = _serve_thread(instance)
        try:
            _request(instance, "POST", "/v1/evaluate", EVALUATE)
            status, body = _request(instance, "GET", "/v1/health")
            assert status == 200
            result = body["result"]
            assert result["worker"]["index"] == 0
            assert result["worker"]["pid"] > 0
            assert result["worker"]["inflight"] >= 0
            assert result["pool"]["max_inflight"] == 7
            assert result["pool"]["shards"] == 0
            assert result["disk_cache"]["entries"] >= 1
            assert result["disk_cache"]["bytes"] > 0
        finally:
            _teardown(session, instance, thread)


class TestShutdown:
    def test_shutdown_endpoint_stops_the_loop(self):
        session = Session()
        instance = ReproServer(("127.0.0.1", 0), session)
        thread = _serve_thread(instance)
        try:
            status, body = _request(instance, "POST", "/v1/shutdown", {})
            assert status == 200
            assert body["result"]["status"] == "shutting down"
            thread.join(timeout=10)
            assert not thread.is_alive(), "serve loop still running"
        finally:
            instance.server_close()
            session.close()
