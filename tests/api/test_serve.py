"""The serve front-end: routes, envelopes, shared cache, shutdown."""

import http.client
import json
import os
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import API_SCHEMA_VERSION, Session
from repro.api.loadtest import ServerProcess
from repro.api.serve import (
    LISTEN_BACKLOG,
    MAX_BODY_BYTES,
    ReproServer,
    ServeConfig,
    run_server,
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

    def test_servers_over_one_cache_directory_share_results(self, tmp_path):
        """Independent servers over one ``--cache-dir`` share every point."""
        from repro.engine.cache import ResultCache
        from repro.engine.pool import Engine

        spawned = []
        for _ in range(2):
            session = Session(
                engine=Engine(cache=ResultCache(directory=tmp_path))
            )
            instance = ReproServer(("127.0.0.1", 0), session)
            spawned.append((session, instance, _serve_thread(instance)))
        (_, a, _), (_, b, _) = spawned
        try:
            _, first = _request(a, "POST", "/v1/evaluate", EVALUATE)
            _, second = _request(b, "POST", "/v1/evaluate", EVALUATE)
        finally:
            for session, instance, thread in spawned:
                _teardown(session, instance, thread)
        assert first["result"]["cached"] is False
        assert second["result"]["cached"] is True
        assert second["result"] == dict(first["result"], cached=True)


class TestSocketLatency:
    """Cache hits cost milliseconds on the wire, not a delayed-ACK wait."""

    def test_listen_backlog_absorbs_bursts(self, server):
        assert server.request_queue_size == LISTEN_BACKLOG

    def test_warm_keepalive_hits_skip_the_delayed_ack_floor(self, server):
        # A response leaves in one write only while it fits the 8 KiB write
        # buffer, and a streamed sweep writes once per line; with Nagle's
        # algorithm on, a write that follows an unacknowledged one waits
        # for the client's delayed ACK, ~40 ms.
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


def _raw(server, data: bytes) -> bytes:
    """All the server sends for ``data`` on a new connection, to its close.

    A server that keeps the connection open fails this by timing out.
    """
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=10
    ) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _status(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def _read_response(stream) -> tuple[int, dict, bytes]:
    """One ``Content-Length`` response off a socket file."""
    status = _status(stream.readline())
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("iso-8859-1").partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def _post(path: str, body: bytes, *lines: bytes) -> bytes:
    """A raw HTTP/1.1 POST with extra header ``lines``."""
    head = [
        b"POST " + path.encode() + b" HTTP/1.1",
        b"Host: localhost",
        b"Content-Type: application/json",
        *lines,
    ]
    return b"\r\n".join(head) + b"\r\n\r\n" + body


PRESSURE_BODY = json.dumps(PRESSURE).encode()
LENGTH = b"Content-Length: %d" % len(PRESSURE_BODY)


class TestWireConformance:
    """What a client sees of the request parser, as with the stdlib's."""

    def test_server_header_names_the_program(self, server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Server") == "repro"

    # A request line refused before its version is accepted is answered
    # as HTTP/0.9, the stdlib's way: no status line, the error page only.
    def test_garbage_request_line_is_400(self, server):
        reply = _raw(server, b"NOT A REQUEST LINE\r\n\r\n")
        assert not reply.startswith(b"HTTP/")
        assert b"Error code: 400" in reply

    def test_http_2_is_505(self, server):
        reply = _raw(server, b"GET /v1/health HTTP/2.0\r\n\r\n")
        assert not reply.startswith(b"HTTP/")
        assert b"Error code: 505" in reply

    @pytest.mark.parametrize(
        "version", [b"HTTP/1", b"HTTP/1.1.1", b"HTTP/1.\xb2", b"HTTX/1.1"]
    )
    def test_bad_version_is_400(self, server, version):
        reply = _raw(server, b"GET /v1/health " + version + b"\r\n\r\n")
        assert b"Error code: 400" in reply

    def test_version_numbers_ignore_leading_zeros(self, server):
        reply = _raw(
            server,
            b"GET /v1/health HTTP/01.001\r\nConnection: close\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_http_0_9_allows_only_get(self, server):
        reply = _raw(server, b"POST /v1/pressure\r\n\r\n")
        assert not reply.startswith(b"HTTP/")
        assert b"Error code: 400" in reply
        assert b"Bad HTTP/0.9 request type" in reply

    @pytest.mark.parametrize(
        "count, status", [(99, 200), (100, 431), (101, 431)]
    )
    def test_header_count_limit(self, server, count, status):
        # The blank line that ends the block counts as one of 100 lines.
        lines = [b"X-H%d: %d" % (i, i) for i in range(count - 1)]
        reply = _raw(
            server,
            b"GET /v1/health HTTP/1.1\r\n"
            + b"".join(line + b"\r\n" for line in lines)
            + b"Connection: close\r\n\r\n",
        )
        assert _status(reply) == status

    def test_header_line_length_limit(self, server):
        def line(size: int) -> bytes:  # CRLF included
            return b"X-Big: " + b"a" * (size - 9) + b"\r\n"

        reply = _raw(
            server,
            b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n"
            + line(65536)
            + b"\r\n",
        )
        assert _status(reply) == 200
        # Nothing follows the long line, so the server has read all of
        # the request when it answers and closes.
        reply = _raw(server, b"GET /v1/health HTTP/1.1\r\n" + line(65537))
        assert _status(reply) == 431

    def test_lowercase_content_length_is_honoured(self, server):
        reply = _raw(
            server,
            _post(
                "/v1/pressure",
                PRESSURE_BODY,
                LENGTH.lower(),
                b"connection: close",
            ),
        )
        assert _status(reply) == 200
        envelope = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert envelope["result"]["type"] == "pressure.response"

    def test_connection_close_closes_after_the_response(self, server):
        reply = _raw(
            server,
            _post("/v1/pressure", PRESSURE_BODY, LENGTH, b"Connection: close"),
        )
        assert _status(reply) == 200
        assert reply.endswith(b"}")  # one whole response, then the close

    def test_http_1_0_closes_unless_kept_alive(self, server):
        reply = _raw(server, b"GET /v1/health HTTP/1.0\r\n\r\n")
        assert _status(reply) == 200
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(
                    b"GET /v1/health HTTP/1.0\r\n"
                    b"Connection: keep-alive\r\n\r\n"
                )
                status, _headers, body = _read_response(stream)
                assert status == 200 and json.loads(body)["ok"]

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        body = PRESSURE_BODY + b" " * 2048  # over 1 KiB, as curl sends
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            stream = sock.makefile("rb")
            start = time.perf_counter()
            sock.sendall(
                _post(
                    "/v1/pressure",
                    b"",
                    b"Content-Length: %d" % len(body),
                    b"Expect: 100-continue",
                )
            )
            # A server that buffers the interim reply waits for the body
            # while the client waits for the reply, until a timeout.
            assert stream.readline().startswith(b"HTTP/1.1 100 ")
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            status, _headers, payload = _read_response(stream)
            elapsed = time.perf_counter() - start
        assert status == 200 and json.loads(payload)["ok"]
        assert elapsed < 0.5, elapsed

    def test_two_content_lengths_are_400(self, server):
        reply = _raw(
            server,
            _post(
                "/v1/pressure",
                PRESSURE_BODY,
                LENGTH,
                b"Content-Length: 0",
                b"Connection: close",
            ),
        )
        assert _status(reply) == 400

    @pytest.mark.parametrize(
        "line",
        [b"X-Note: one\r\n  folded", b"NoColonHere", b"X-Note : spaced"],
        ids=["obs-fold", "no-colon", "spaced-name"],
    )
    def test_malformed_header_line_is_400(self, server, line):
        reply = _raw(
            server,
            _post(
                "/v1/pressure",
                PRESSURE_BODY,
                LENGTH,
                b"Connection: close",
                line,
            ),
        )
        assert _status(reply) == 400

    def test_double_slash_path_is_collapsed(self, server):
        reply = _raw(
            server, b"GET //v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert _status(reply) == 200
        assert b'"status": "serving"' in reply

    def test_chunked_body_is_400_and_closes(self, server):
        """A chunked body is refused, not read as ``{}`` with its chunks
        parsed as the next request: one response, then the close."""
        chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (
            len(PRESSURE_BODY), PRESSURE_BODY
        )
        reply = _raw(
            server,
            _post("/v1/pressure", chunk, b"Transfer-Encoding: chunked"),
        )
        assert _status(reply) == 400
        assert reply.count(b"HTTP/1.") == 1, reply
        envelope = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert "Transfer-Encoding" in envelope["error"]["message"]

    @pytest.mark.parametrize("length", [b"-1", b"ten"])
    def test_unframeable_content_length_is_400_and_closes(
        self, server, length
    ):
        """With no body end to read to, the server cannot find the next
        request: it answers once and closes."""
        reply = _raw(
            server,
            _post("/v1/pressure", PRESSURE_BODY, b"Content-Length: " + length),
        )
        assert _status(reply) == 400
        assert reply.count(b"HTTP/1.") == 1, reply

    def test_unknown_route_body_is_read_before_the_404(self, server):
        """The 404's unread body must not start the next request."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            stream = sock.makefile("rb")
            sock.sendall(
                _post("/v1/teleport", b"{}", b"Content-Length: 2")
                + b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n"
            )
            first, _headers, _body = _read_response(stream)
            second, _headers, body = _read_response(stream)
        assert (first, second) == (404, 200)
        assert json.loads(body)["result"]["status"] == "serving"

    def test_get_body_is_read_before_the_answer(self, server):
        """A GET's declared body must not start the next request."""
        get = b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n"
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            stream = sock.makefile("rb")
            sock.sendall(
                get + b"Content-Length: 2\r\n\r\n{}" + get + b"\r\n"
            )
            first, _headers, _body = _read_response(stream)
            second, _headers, _body = _read_response(stream)
        assert (first, second) == (200, 200)


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

    def test_stream_lines_leave_as_they_are_produced(
        self, server, monkeypatch
    ):
        """Each ndjson line is on the wire before the next is produced."""
        released = threading.Event()

        def sweep_stream(request):
            yield {"event": "point", "index": 0, "total": 2}
            released.wait(30)  # until the client has read the first line
            yield {"event": "point", "index": 1, "total": 2}
            yield {"event": "result", "response": {}}

        monkeypatch.setattr(server.session, "sweep_stream", sweep_stream)
        body = json.dumps({"name": "rf-size", "n_loops": 3}).encode()
        events = []
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            stream = sock.makefile("rb")
            sock.sendall(
                _post(
                    "/v1/sweep?stream=1",
                    body,
                    b"Content-Length: %d" % len(body),
                    b"Connection: close",
                )
            )
            try:
                assert _status(stream.readline()) == 200
                while stream.readline() != b"\r\n":
                    pass
                while size := int(stream.readline(), 16):
                    chunk = stream.read(size)
                    assert stream.read(2) == b"\r\n"
                    # One line per chunk, each whole.
                    assert chunk.count(b"\n") == 1 and chunk.endswith(b"\n")
                    events.append(json.loads(chunk))
                    released.set()
            finally:
                released.set()
        assert [e.get("index") for e in events] == [0, 1, None]
        assert all(e["ok"] for e in events)

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
        config = ServeConfig(max_inflight=7, cache_dir="x")
        instance = ReproServer(("127.0.0.1", 0), session, config=config)
        thread = _serve_thread(instance)
        try:
            _request(instance, "POST", "/v1/evaluate", EVALUATE)
            status, body = _request(instance, "GET", "/v1/health")
            assert status == 200
            result = body["result"]
            assert result["worker"]["pid"] > 0
            assert result["worker"]["inflight"] >= 0
            assert result["pool"]["max_inflight"] == 7
            assert result["disk_cache"]["entries"] >= 1
            assert result["disk_cache"]["bytes"] > 0
        finally:
            _teardown(session, instance, thread)

    def test_health_reads_a_large_cache_without_walking_files(
        self, tmp_path, monkeypatch
    ):
        """20,000 entries: usage is one aggregate query, not a file walk."""
        import pathlib
        import sqlite3

        from repro.engine.cache import DB_NAME, TABLE, ResultCache
        from repro.engine.pool import Engine

        directory = tmp_path / "cache"
        directory.mkdir()
        rows = [
            (f"{i:064x}", 0, "", "evaluate", "x" * (i % 97), i % 97)
            for i in range(20_000)
        ]
        with sqlite3.connect(directory / DB_NAME) as db:
            db.execute(TABLE)
            db.executemany(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?)", rows
            )
        expected = {
            "directory": str(directory),
            "entries": 20_000,
            "bytes": sum(row[5] for row in rows),
        }

        def no_walking(*_args, **_kwargs):
            raise AssertionError("disk usage must not walk the directory")

        monkeypatch.setattr(pathlib.Path, "glob", no_walking)
        monkeypatch.setattr(os, "scandir", no_walking)
        cache = ResultCache(directory=directory)
        assert cache.disk_usage() == expected
        session = Session(engine=Engine(cache=cache))
        instance = ReproServer(("127.0.0.1", 0), session)
        thread = _serve_thread(instance)
        try:
            status, body = _request(instance, "GET", "/v1/health")
        finally:
            _teardown(session, instance, thread)
        assert status == 200
        assert body["result"]["disk_cache"] == expected

    def test_health_describes_one_process(self, server):
        status, body = _request(server, "GET", "/v1/health")
        assert status == 200
        result = body["result"]
        assert result["worker"]["pid"] == os.getpid()
        assert "workers" not in result and "queue_depth" not in result
        assert set(result["pool"]) == {
            "engine_workers",
            "max_inflight",
            "rate_limit",
            "burst",
        }


class TestServeConfig:
    def test_scale_out_knobs_are_not_accepted(self):
        for knob in ("workers", "linger", "coalesce"):
            with pytest.raises(TypeError):
                ServeConfig(**{knob: 1})

    def test_pool_info_mirrors_the_config(self):
        config = ServeConfig(
            engine_workers=2, max_inflight=9, rate_limit=5.0, burst=3.0
        )
        assert config.pool_info() == {
            "engine_workers": 2,
            "max_inflight": 9,
            "rate_limit": 5.0,
            "burst": 3.0,
        }


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

    def test_shutdown_requester_keeping_its_socket_does_not_hold_the_exit(
        self,
    ):
        session = Session()
        instance = ReproServer(("127.0.0.1", 0), session)
        thread = _serve_thread(instance)
        try:
            with socket.create_connection(
                ("127.0.0.1", instance.port), timeout=10
            ) as sock:
                stream = sock.makefile("rb")
                sock.sendall(
                    _post("/v1/shutdown", b"{}", b"Content-Length: 2")
                )
                status, headers, _body = _read_response(stream)
                assert status == 200
                assert headers["connection"] == "close"
                thread.join(timeout=10)
                assert not thread.is_alive(), "serve loop still running"
                # The socket stays open while the server closes: the join
                # of the handler threads must not wait for this client.
                closing = threading.Thread(target=instance.server_close)
                start = time.monotonic()
                closing.start()
                closing.join(timeout=5)
                assert not closing.is_alive(), "server_close() waits on us"
                assert time.monotonic() - start < 5
                assert stream.read() == b""  # the server hung up
        finally:
            instance.server_close()
            session.close()

    def test_sigterm_is_a_clean_exit(self):
        with ServerProcess() as server:
            assert server.request("evaluate", EVALUATE)[0] == 200
            server.process.terminate()
            server.process.wait(timeout=30)
            assert server.process.returncode == 0

    def test_wire_shutdown_is_a_clean_exit(self):
        with ServerProcess() as server:
            pid = server.process.pid
            assert server.request("evaluate", EVALUATE)[0] == 200
            assert server.shutdown() is True
            assert server.process.returncode == 0
        with pytest.raises(OSError):  # the process is really gone
            os.kill(pid, 0)

    def test_port_file_lives_exactly_as_long_as_the_server(
        self, tmp_path, capsys
    ):
        port_file = tmp_path / "port.txt"
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(
                run_server(Session(), port=0, port_file=str(port_file))
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        port = int(port_file.read_text(encoding="utf-8"))
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/shutdown", data=b"{}", method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        thread.join(timeout=30)
        assert not thread.is_alive(), "serve loop still running"
        assert outcome == [0]
        assert not port_file.exists()
        assert "shut down cleanly" in capsys.readouterr().out
