"""``python -m repro serve`` -- the facade over a socket, many clients.

One process: a stdlib :class:`~http.server.ThreadingHTTPServer` whose
request threads share one :class:`~repro.api.session.Session`, so every
client shares its result cache and its memo of loop chains.  The session
mounts the on-disk result cache (:mod:`repro.engine.cache`'s shared
backend), so a point any CLI run or any other server over the same
directory evaluated is a cache hit here too.  More cores are reached by
running independent servers on separate ports over one ``--cache-dir``.

Wire protocol (HTTP/JSON; see ``docs/api.md``):

* ``POST /v1/{schedule,pressure,evaluate,sweep,experiment,validate,report}``
  -- body is the request's ``to_dict()`` form; the path names the type,
  so the ``type`` tag is optional in the body.
* ``POST /v1/sweep?stream=1`` -- chunked newline-delimited JSON: one
  ``point`` event per finished grid point (bursting per loop group under
  the batch tier), then one ``result`` event carrying the full sweep
  response.
* ``GET /v1/health`` -- liveness plus live session counters, the
  in-flight request count, the disk cache's size and the pool
  configuration.
* ``GET /v1/experiments`` / ``GET /v1/capabilities`` -- discovery.
* ``POST /v1/shutdown`` -- graceful stop: in-flight requests finish,
  then the process exits 0.

Every response is an envelope: ``{"ok": true, "result": {...}}`` on
success, ``{"ok": false, "error": {"type", "message", "status"}}`` on
failure, with the HTTP status matching the error's.  Unknown schema
versions, unknown fields, and malformed JSON are 400s; an oversized body
is a 413; a saturated server (in-flight bound hit or token bucket empty)
is a 429 with a ``Retry-After`` header -- never a stack trace on the
socket.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.api.dispatch import InflightGate, TokenBucket
from repro.api.registry import capabilities, list_experiments
from repro.api.session import Session
from repro.api.types import (
    API_SCHEMA_VERSION,
    ApiError,
    PayloadTooLargeError,
    REQUEST_TYPES,
    RequestValidationError,
    ServerSaturatedError,
    SweepRequest,
)

#: Cap on request bodies; a typed request is tiny, so anything bigger is
#: either a mistake or abuse and dies (as HTTP 413) before being buffered.
MAX_BODY_BYTES = 1 << 20

#: Default bound on concurrently admitted requests.
DEFAULT_MAX_INFLIGHT = 64

#: Listen backlog of the server.  socketserver's default of 5 makes
#: the kernel drop connection bursts, which clients only notice as ~1 s
#: SYN-retransmit stalls.
LISTEN_BACKLOG = 256

#: Header limits, the stdlib's (``http.client``): a longer line, or more
#: lines than this in a header block (its blank end line counts), is a 431.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can be told, in one bundle.

    ``engine_workers`` sizes the session's *compute* pool (default 0:
    in-process evaluation).  ``cache_dir=None`` keeps results in memory
    only, shared by this server's clients but by no other process; the
    CLI passes a directory unless ``--no-cache`` was explicit.
    """

    host: str = "127.0.0.1"
    port: int = 0
    engine_workers: int = 0
    cache_dir: str | None = None
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    rate_limit: float = 0.0  # requests/second; 0 disables
    burst: float | None = None
    port_file: str | None = None
    quiet: bool = True

    def pool_info(self) -> dict:
        """The health endpoint's ``pool`` section."""
        return {
            "engine_workers": self.engine_workers,
            "max_inflight": self.max_inflight,
            "rate_limit": self.rate_limit,
            "burst": self.burst,
        }


class ReproServer(ThreadingHTTPServer):
    """One shared session behind a thread-per-request HTTP server.

    Handler threads are non-daemon and joined by ``server_close()``
    (``block_on_close``), so a graceful shutdown really does let
    in-flight requests finish before the session (and its worker pool)
    is torn down; the per-connection socket timeout on the handler
    bounds how long an idle keep-alive connection can delay that join.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(
        self,
        address: tuple[str, int],
        session: Session,
        quiet: bool = True,
        config: ServeConfig | None = None,
    ) -> None:
        self.session = session
        self.quiet = quiet
        self.config = config if config is not None else ServeConfig(
            host=address[0], port=address[1], quiet=quiet
        )
        self.gate = InflightGate(self.config.max_inflight)
        self.bucket = TokenBucket(
            self.config.rate_limit, burst=self.config.burst
        )
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def handle_error(self, request: object, client_address: object) -> None:
        """Swallow benign client disconnects; report real faults."""
        import sys as _sys

        exc = _sys.exc_info()[1]
        if isinstance(
            exc, (BrokenPipeError, ConnectionResetError, TimeoutError)
        ):
            return  # the client went away mid-exchange; not our fault
        super().handle_error(request, client_address)


# ----------------------------------------------------------------------
# Request head
# ----------------------------------------------------------------------
class _Headers:
    """A request's header fields by lower-cased name; the first one wins."""

    __slots__ = ("fields",)

    def __init__(self) -> None:
        self.fields: dict[str, str] = {}

    def get(self, name: str, default: str = "") -> str:
        return self.fields.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.fields


class _BadHead(Exception):
    """A request head refused before routing: ``status`` and a reason."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status


def _read_headers(readline: Callable[[int], bytes]) -> _Headers:
    """Read one header block, through its blank end line, by ``readline``.

    The stdlib's limits and counting apply (431).  Two inputs that its
    email parser let through are 400s, because a proxy in front may read
    them differently: a second ``Content-Length``, and a line that is not
    ``name: value`` (no colon, a blank or spaced name, or an obs-fold
    continuation that starts with whitespace).
    """
    headers = _Headers()
    fields = headers.fields
    lines = 0
    while True:
        line = readline(MAX_HEADER_LINE + 1)
        if len(line) > MAX_HEADER_LINE:
            raise _BadHead(431, "Line too long")
        lines += 1
        if lines > MAX_HEADER_LINES:
            raise _BadHead(431, "Too many headers")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or name.split() != [name]:
            raise _BadHead(400, "Malformed header line")
        name = name.lower()
        if name not in fields:
            fields[name] = value.strip(" \t\r\n")
        elif name == "content-length":
            raise _BadHead(400, "More than one Content-Length header")


def _http_version(version: str) -> tuple[int, int] | None:
    """``HTTP/M.N`` as ``(M, N)`` by the stdlib's rules; ``None`` if bad."""
    if not version.startswith("HTTP/"):
        return None
    numbers = version[5:].split(".")
    # The stdlib's isdigit() test admits "²", which int() then refuses.
    if len(numbers) != 2 or not all(
        part.isdecimal() and len(part) <= 10 for part in numbers
    ):
        return None
    return int(numbers[0]), int(numbers[1])


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle keep-alive connection, or a client that
    #: declared more body than it sends, releases its thread in bounded
    #: time instead of hanging it forever.
    timeout = 30
    #: Buffered writes: a response's status line, headers and body leave
    #: in one send when ``handle_one_request`` flushes.
    wbufsize = -1
    #: A stream flushes once per ndjson line, and a response over the 8 KiB
    #: write buffer leaves in two sends; with Nagle on, a send that follows
    #: an unacknowledged one waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    server: ReproServer  # narrowed for type checkers
    headers: _Headers  # type: ignore[assignment]  # not an email Message

    def version_string(self) -> str:
        """The ``Server`` header: the program, not the interpreter."""
        return "repro"

    def parse_request(self) -> bool:
        """Parse the request line and header block, as the stdlib would.

        Same request-line rules and answers as
        :meth:`BaseHTTPRequestHandler.parse_request`, but the header
        block is read by :func:`_read_headers` rather than through the
        ``email`` parser, which cost most of a cache hit's parse time.
        Returns False once an error response has been queued.
        """
        self.command = None  # type: ignore[assignment]
        self.request_version = self.default_request_version
        self.close_connection = True
        line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = line
        words = line.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _http_version(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    400, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        if path.startswith("//"):  # not an open redirect (gh-87389)
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = _read_headers(self.rfile.readline)
        except _BadHead as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now: the client waits for it to send."""
        super().handle_expect_100()
        self.wfile.flush()
        return True

    # ------------------------------------------------------------------
    # Envelope plumbing
    # ------------------------------------------------------------------
    def _send(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _ok(self, result: object) -> None:
        self._send(200, {"ok": True, "result": result})

    def _fail(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: dict | None = None,
    ) -> None:
        self._send(
            status,
            {
                "ok": False,
                "error": {
                    "type": error_type,
                    "message": message,
                    "status": status,
                },
            },
            headers=headers,
        )

    def _fail_exc(self, exc: Exception) -> None:
        if isinstance(exc, ServerSaturatedError):
            retry = max(exc.retry_after, 0.0)
            self._fail(
                exc.status,
                type(exc).__name__,
                str(exc),
                # ceil to a whole second: Retry-After is integer-valued.
                headers={"Retry-After": str(max(1, int(retry + 0.999)))},
            )
        elif isinstance(exc, ApiError):
            self._fail(exc.status, type(exc).__name__, str(exc))
        else:
            self._fail(500, type(exc).__name__, str(exc))

    def log_message(
        self, format: str, *args: object
    ) -> None:  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Streaming plumbing (chunked transfer encoding, ndjson lines)
    # ------------------------------------------------------------------
    def _stream_start(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

    def _stream_line(self, obj: dict) -> None:
        data = (json.dumps(obj) + "\n").encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _stream_end(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        server = self.server
        session = server.session
        payload = {
            "status": "serving",
            "schema_version": API_SCHEMA_VERSION,
            **session.stats(),
            "worker": {"pid": os.getpid(), "inflight": server.gate.depth},
            "pool": server.config.pool_info(),
        }
        cache = session.engine.cache
        payload["disk_cache"] = (
            cache.disk_usage()
            if cache is not None and cache.directory is not None
            else None
        )
        return payload

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path = urlsplit(self.path).path
        try:
            # A GET carries no meaning in a body, but a declared one must
            # still leave the socket, as in ``do_POST``.
            self._read_body()
        except Exception as exc:  # noqa: BLE001 - envelope, never a trace
            self._fail_exc(exc)
            return
        if path in ("/v1/health", "/health"):
            self._ok(self._health())
        elif path == "/v1/experiments":
            self._ok([e.describe() for e in list_experiments()])
        elif path == "/v1/capabilities":
            self._ok(capabilities())
        else:
            self._fail(404, "NotFound", f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        split = urlsplit(self.path)
        path = split.path
        try:
            # The body must leave the socket before any answer, a 404 or a
            # refusal included, or its bytes would start the next
            # keep-alive request; it is bounded (MAX_BODY_BYTES), so
            # admission control after the read still sheds all meaningful
            # load.
            raw = self._read_body()
        except Exception as exc:  # noqa: BLE001 - envelope, never a trace
            self._fail_exc(exc)
            return
        if path == "/v1/shutdown":
            # Close this connection too: server_close() joins every handler
            # thread, and a requester keeping its socket open would hold
            # this one until the idle timeout.
            self._send(
                200,
                {"ok": True, "result": {"status": "shutting down"}},
                {"Connection": "close"},
            )
            # shutdown() joins the serve loop; calling it from a handler
            # thread is safe, from the loop's own thread it would deadlock.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
            return
        op = path.removeprefix("/v1/")
        if "/v1/" + op != path or op not in REQUEST_TYPES:
            self._fail(
                404,
                "NotFound",
                f"no route for POST {path} "
                f"(operations: {', '.join(sorted(REQUEST_TYPES))})",
            )
            return
        stream = (
            op == "sweep"
            and parse_qs(split.query).get("stream", ["0"])[-1] == "1"
        )
        try:
            body = _json_object(raw)
            wait = self.server.bucket.try_acquire()
            if wait > 0:
                raise ServerSaturatedError(
                    f"rate limit of {self.server.bucket.rate:.6g} "
                    f"request(s)/second exceeded",
                    retry_after=wait,
                )
            with self.server.gate:
                request = REQUEST_TYPES[op].from_dict(body)
                if getattr(request, "out_dir", None) is not None:
                    # A network peer must not get a write-anywhere
                    # primitive with the server's privileges; artifacts
                    # travel in-band.
                    raise RequestValidationError(
                        "out_dir is not accepted over the wire; set "
                        "include_text=true and write the artifact "
                        "client-side"
                    )
                if stream:
                    self._stream_sweep(request)
                    return
                response = self.server.session.submit(request)
        except Exception as exc:  # noqa: BLE001 - envelope, never a trace
            self._fail_exc(exc)
            return
        self._ok(response.to_dict())

    def _stream_sweep(self, request: SweepRequest) -> None:
        """Chunked ndjson sweep: point events, then the result envelope.

        The response status must be committed before the sweep starts,
        so mid-flight failures travel as an ``error`` event on the
        stream (same envelope shape, ``ok`` false) rather than an HTTP
        status.  A client that disconnects mid-stream stops receiving;
        the sweep itself runs to completion and lands in the shared
        cache (engine jobs are not cancellable).
        """
        events = self.server.session.sweep_stream(request)
        self._stream_start()
        try:
            for event in events:
                if event["event"] == "error":
                    self._stream_line({"ok": False, **event})
                else:
                    self._stream_line({"ok": True, **event})
        finally:
            self._stream_end()

    def _read_body(self) -> bytes:
        """The request body's bytes, framed by ``Content-Length`` only.

        A ``Transfer-Encoding`` body is refused and the connection
        dropped: read as no body, its chunks would be parsed as the next
        request, while a proxy in front would see one request (request
        smuggling).
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise RequestValidationError(
                "Transfer-Encoding request bodies are not accepted; "
                "send the body with a Content-Length"
            )
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.close_connection = True  # the body's end is unknown
            raise RequestValidationError("bad Content-Length header")
        if length < 0:
            # rfile.read(-N) would mean read-to-EOF and hang the thread
            # on a connection the client keeps open.
            self.close_connection = True
            raise RequestValidationError("negative Content-Length header")
        if length > MAX_BODY_BYTES:
            # Drain (boundedly) so the 413 reaches a client still writing,
            # then drop the connection rather than resync mid-stream.
            self.close_connection = True
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""


def _json_object(raw: bytes) -> dict:
    """A request body parsed as a JSON object; no body reads as ``{}``."""
    try:
        data = json.loads(raw or b"{}")
    except json.JSONDecodeError as exc:
        raise RequestValidationError(f"request body is not JSON: {exc}")
    if not isinstance(data, dict):
        raise RequestValidationError("request body must be an object")
    return data


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _freeze_heap() -> None:
    """Move the start-up heap out of the cyclic collector's reach.

    Imports, registries and the session leave ~24k long-lived objects, and
    every full collection under load would rescan them all, stalling the
    request that triggered it.  Collect once, then freeze the survivors:
    later collections scan only what requests allocate.
    """
    gc.collect()
    gc.freeze()


def _graceful_signals(server: "ReproServer") -> object | None:
    def _graceful(signum: int, frame: object) -> None:  # pragma: no cover
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:  # signals exist only in the main thread; tests run in others
        return signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # pragma: no cover - non-main thread
        return None


def run_server(
    session: Session,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: str | None = None,
    quiet: bool = True,
    config: ServeConfig | None = None,
) -> int:
    """Serve ``session`` until shut down; returns 0.

    ``port=0`` binds an ephemeral port; ``port_file`` (written after the
    bind, removed on exit) lets scripts discover it without parsing
    stdout.  ``config`` carries the admission-control knobs; when absent
    the defaults apply (no rate limit, 64 in-flight).
    """
    if config is None:
        config = ServeConfig(
            host=host, port=port, port_file=port_file, quiet=quiet
        )
    server = ReproServer((host, port), session, quiet=quiet, config=config)
    previous = _graceful_signals(server)
    if port_file:
        Path(port_file).write_text(str(server.port), encoding="utf-8")
    print(
        f"repro serve: listening on http://{host}:{server.port} "
        f"(schema v{API_SCHEMA_VERSION}; POST /v1/shutdown or Ctrl+C "
        f"to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        session.close()
        if previous is not None:  # pragma: no branch
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        if port_file:
            Path(port_file).unlink(missing_ok=True)
    print("repro serve: shut down cleanly", flush=True)
    return 0


def serve(config: ServeConfig) -> int:
    """Entry point the CLI calls: one session over ``config``'s cache."""
    from repro.engine.cache import ResultCache
    from repro.engine.pool import Engine

    session = Session(
        engine=Engine(
            workers=config.engine_workers,
            cache=ResultCache(directory=config.cache_dir),
        )
    )
    _freeze_heap()  # before run_server writes the port file
    return run_server(
        session,
        host=config.host,
        port=config.port,
        port_file=config.port_file,
        quiet=config.quiet,
        config=config,
    )


__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "LISTEN_BACKLOG",
    "MAX_BODY_BYTES",
    "ReproServer",
    "ServeConfig",
    "run_server",
    "serve",
]
