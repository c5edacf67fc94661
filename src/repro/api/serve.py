"""``python -m repro serve`` -- the facade over a socket, many clients.

Two topologies behind one wire protocol:

* **Single process** (``--workers 0``, the default): a stdlib
  :class:`~http.server.ThreadingHTTPServer` whose request threads share
  one :class:`~repro.api.session.Session` -- the PR 5 front-end,
  unchanged semantics, good for development and tests.
* **Scale-out** (``--workers N``): a supervisor binds the listening
  socket once and forks N *shard* processes that accept from it
  concurrently (the kernel load-balances connections across acceptors;
  on platforms without ``fork`` each shard rebinds the port with
  ``SO_REUSEPORT``).  Every shard owns a private session/engine but all
  of them mount the **same on-disk result cache**
  (:mod:`repro.engine.cache`'s shared backend), so a point evaluated by
  any shard -- or by any earlier run -- is a cache hit for all of them.
  Shards additionally *coalesce* concurrently-arriving requests into
  single engine batches (:class:`repro.api.dispatch.BatchDispatcher`),
  which lets the engine's grid batching work across HTTP requests.

Wire protocol (HTTP/JSON; see ``docs/api.md``):

* ``POST /v1/{schedule,pressure,evaluate,sweep,experiment,validate,report}``
  -- body is the request's ``to_dict()`` form; the path names the type,
  so the ``type`` tag is optional in the body.
* ``POST /v1/sweep?stream=1`` -- chunked newline-delimited JSON: one
  ``point`` event per finished grid point (bursting per loop group under
  the batch tier), then one ``result`` event carrying the full sweep
  response.
* ``GET /v1/health`` -- liveness plus live session counters, this
  worker's queue depth, the shared disk cache's size, the pool
  configuration, and (scale-out) per-worker heartbeats.
* ``GET /v1/experiments`` / ``GET /v1/capabilities`` -- discovery.
* ``POST /v1/shutdown`` -- graceful stop; in scale-out mode the
  receiving shard exits 0 and the supervisor winds down the rest.

Every response is an envelope: ``{"ok": true, "result": {...}}`` on
success, ``{"ok": false, "error": {"type", "message", "status"}}`` on
failure, with the HTTP status matching the error's.  Unknown schema
versions, unknown fields, and malformed JSON are 400s; an oversized body
is a 413; a saturated worker (in-flight bound hit or token bucket empty)
is a 429 with a ``Retry-After`` header -- never a stack trace on the
socket.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.api.dispatch import BatchDispatcher, InflightGate, TokenBucket
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

#: Default bound on concurrently admitted requests per worker process.
DEFAULT_MAX_INFLIGHT = 64

#: Listen backlog of every topology.  socketserver's default of 5 makes
#: the kernel drop connection bursts, which clients only notice as ~1 s
#: SYN-retransmit stalls.
LISTEN_BACKLOG = 256


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can be told, in one picklable bundle.

    ``workers=0`` serves single-process; ``workers>=1`` runs that many
    shard processes.  ``engine_workers`` sizes each session's *compute*
    pool (default 0: shards are the parallelism).  ``cache_dir=None``
    keeps results in memory only -- in scale-out mode that forfeits
    cross-shard sharing, so the CLI always passes a directory unless
    ``--no-cache`` was explicit.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    engine_workers: int = 0
    cache_dir: str | None = None
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    rate_limit: float = 0.0  # requests/second; 0 disables
    burst: float | None = None
    linger: float = 0.002  # batch-coalescing window, seconds
    coalesce: bool | None = None  # None: on for shards, off single-process
    port_file: str | None = None
    quiet: bool = True

    def pool_info(self) -> dict:
        """The health endpoint's ``pool`` section."""
        return {
            "shards": self.workers,
            "engine_workers": self.engine_workers,
            "max_inflight": self.max_inflight,
            "rate_limit": self.rate_limit,
            "burst": self.burst,
            "coalesce": bool(
                self.coalesce if self.coalesce is not None else self.workers
            ),
        }


class WorkerHeartbeat:
    """One shard's liveness record: an atomically-replaced JSON file.

    Heartbeats are the scale-out health primitive: every shard keeps
    ``<state_dir>/worker-<i>.json`` fresh (throttled to at most one
    write per ``interval``), and any shard's ``/v1/health`` folds the
    whole directory into a per-worker liveness table -- no shared memory,
    no extra sockets, works across fork and respawn.
    """

    def __init__(
        self, state_dir: Path, index: int, interval: float = 0.5
    ) -> None:
        self.state_dir = Path(state_dir)
        self.index = index
        self.interval = interval
        self.started = time.time()
        self.served = 0
        self._last_write = 0.0
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        return self.state_dir / f"worker-{self.index}.json"

    def beat(
        self, inflight: int = 0, queue_depth: int = 0, force: bool = False
    ) -> None:
        """Refresh the heartbeat file (throttled unless ``force``)."""
        now = time.time()
        with self._lock:
            if not force and now - self._last_write < self.interval:
                return
            self._last_write = now
        payload = json.dumps(
            {
                "index": self.index,
                "pid": os.getpid(),
                "started": self.started,
                "served": self.served,
                "inflight": inflight,
                "queue_depth": queue_depth,
                "updated": now,
            }
        )
        tmp = self.path.with_name(f".tmp-{self.path.name}-{os.getpid()}")
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:  # heartbeats must never take a request down
            tmp.unlink(missing_ok=True)

    @staticmethod
    def read_all(state_dir: Path) -> list[dict]:
        """Every worker's last heartbeat, with a live-pid check folded in."""
        workers = []
        state_dir = Path(state_dir)
        if not state_dir.is_dir():
            return workers
        for path in sorted(state_dir.glob("worker-*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # mid-replace or torn: skip this poll
            pid = data.get("pid")
            try:
                os.kill(int(pid), 0)
                data["alive"] = True
            except (OSError, TypeError, ValueError):
                data["alive"] = False
            workers.append(data)
        return workers


class ReproServer(ThreadingHTTPServer):
    """One shared session behind a thread-per-request HTTP server.

    Handler threads are non-daemon and joined by ``server_close()``
    (``block_on_close``), so a graceful shutdown really does let
    in-flight requests finish before the session (and its worker pool)
    is torn down; the per-connection socket timeout on the handler
    bounds how long an idle keep-alive connection can delay that join.

    ``sock`` lends an already-listening socket (the scale-out
    supervisor's, inherited across ``fork``); the server then skips its
    own bind/activate.  ``allow_reuse_port`` is enabled when shards must
    rebind the port themselves (non-fork platforms).
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
        worker_index: int = 0,
        state_dir: str | Path | None = None,
        sock: socket.socket | None = None,
    ) -> None:
        self.session = session
        self.quiet = quiet
        self.config = config if config is not None else ServeConfig(
            host=address[0], port=address[1], quiet=quiet
        )
        self.worker_index = worker_index
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.gate = InflightGate(self.config.max_inflight)
        self.bucket = TokenBucket(
            self.config.rate_limit, burst=self.config.burst
        )
        self.heartbeat = (
            WorkerHeartbeat(self.state_dir, worker_index)
            if self.state_dir is not None
            else None
        )
        if sock is None:
            super().__init__(address, _Handler)
        else:
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()  # the unbound one the base class made
            self.socket = sock
            self.server_address = sock.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port

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


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle keep-alive connection, or a client that
    #: declared more body than it sends, releases its thread in bounded
    #: time instead of hanging it forever.
    timeout = 30
    #: Responses go out as separate header and body writes; with Nagle on,
    #: the body waits for the client's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True
    server: ReproServer  # narrowed for type checkers

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
        dispatcher = session.dispatcher
        payload = {
            "status": "serving",
            "schema_version": API_SCHEMA_VERSION,
            **session.stats(),
            "worker": {
                "index": server.worker_index,
                "pid": os.getpid(),
                "inflight": server.gate.depth,
                "queue_depth": (
                    dispatcher.queue_depth if dispatcher is not None else 0
                ),
            },
            "pool": server.config.pool_info(),
        }
        cache = session.engine.cache
        payload["disk_cache"] = (
            cache.disk_usage()
            if cache is not None and cache.directory is not None
            else None
        )
        if server.state_dir is not None:
            if server.heartbeat is not None:
                server.heartbeat.beat(
                    inflight=server.gate.depth,
                    queue_depth=payload["worker"]["queue_depth"],
                    force=True,
                )
            payload["workers"] = WorkerHeartbeat.read_all(server.state_dir)
        return payload

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path = urlsplit(self.path).path
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
        if path == "/v1/shutdown":
            self._ok({"status": "shutting down"})
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
            # The body must leave the socket before a refusal, or its
            # leftover bytes would corrupt the next keep-alive request;
            # it is bounded (MAX_BODY_BYTES), so admission control right
            # after the read still sheds all meaningful load.
            body = self._read_body()
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
        finally:
            if self.server.heartbeat is not None:
                self.server.heartbeat.served += 1
                self.server.heartbeat.beat(
                    inflight=self.server.gate.depth,
                    queue_depth=(
                        self.server.session.dispatcher.queue_depth
                        if self.server.session.dispatcher is not None
                        else 0
                    ),
                )
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

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise RequestValidationError("bad Content-Length header")
        if length < 0:
            # rfile.read(-N) would mean read-to-EOF and hang the thread
            # on a connection the client keeps open.
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
        raw = self.rfile.read(length) if length else b"{}"
        try:
            data = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise RequestValidationError(f"request body is not JSON: {exc}")
        if not isinstance(data, dict):
            raise RequestValidationError("request body must be an object")
        return data


# ----------------------------------------------------------------------
# Single-process serving
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
    """Serve single-process until shut down; returns 0.

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
    if config.coalesce:
        session.dispatcher = BatchDispatcher(session, linger=config.linger)
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


# ----------------------------------------------------------------------
# Scale-out serving: supervisor + shard processes
# ----------------------------------------------------------------------
def _shard_main(
    config: ServeConfig,
    index: int,
    state_dir: str,
    sock: socket.socket | None,
    port: int,
) -> None:
    """One shard: private session + dispatcher over the shared cache.

    Runs in a child process.  ``sock`` is the supervisor's listening
    socket (fork platforms); otherwise the shard rebinds ``port`` with
    ``SO_REUSEPORT``.  Exits 0 on graceful shutdown (signal or
    ``POST /v1/shutdown``).
    """
    from repro.engine.cache import ResultCache
    from repro.engine.pool import Engine

    engine = Engine(
        workers=config.engine_workers,
        cache=ResultCache(directory=config.cache_dir),
    )
    session = Session(engine=engine)
    coalesce = config.coalesce if config.coalesce is not None else True
    if coalesce:
        session.dispatcher = BatchDispatcher(session, linger=config.linger)
    if sock is None:
        # Non-fork platform: every shard binds the same concrete port.
        ReproServer.allow_reuse_port = True  # picked up by server_bind
    server = ReproServer(
        (config.host, port),
        session,
        quiet=config.quiet,
        config=config,
        worker_index=index,
        state_dir=state_dir,
        sock=sock,
    )

    def _graceful(signum: int, frame: object) -> None:  # pragma: no cover
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    _freeze_heap()
    server.heartbeat.beat(force=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        session.close()
        server.heartbeat.beat(force=True)


def run_sharded(config: ServeConfig) -> int:
    """Supervise ``config.workers`` shard processes; returns 0.

    The supervisor binds (and listens on) the socket once, forks the
    shards, then only watches: a shard that exits 0 asked for shutdown
    (``POST /v1/shutdown``), so the rest are wound down too; a shard
    that dies any other way is respawned.  Three consecutive deaths
    within a second of (re)spawn are a crash loop -- a configuration
    problem respawn cannot fix -- so the supervisor winds everything
    down and exits non-zero instead of flapping forever.
    """
    import tempfile

    can_fork = multiprocessing.get_start_method(allow_none=False) == "fork"
    if not can_fork and not hasattr(socket, "SO_REUSEPORT"):
        raise RuntimeError(
            "scale-out serve needs fork or SO_REUSEPORT; "
            "run with --workers 0 on this platform"
        )
    listener = socket.create_server(
        (config.host, config.port),
        backlog=LISTEN_BACKLOG,
        reuse_port=not can_fork,
    )
    port = listener.getsockname()[1]
    state_dir = tempfile.mkdtemp(prefix="repro-serve-")
    shard_sock = listener if can_fork else None

    def spawn(index: int) -> multiprocessing.Process:
        process = multiprocessing.Process(
            target=_shard_main,
            args=(config, index, state_dir, shard_sock, port),
            name=f"repro-serve-shard-{index}",
        )
        process.start()
        return process

    shards = {i: (spawn(i), time.monotonic()) for i in range(config.workers)}
    if not can_fork:
        # The supervisor's socket was only there to resolve the port and
        # hold it while shards bind; once they are up it must leave the
        # reuseport group or it would swallow its share of connections.
        time.sleep(0.2)
        listener.close()
    if config.port_file:
        Path(config.port_file).write_text(str(port), encoding="utf-8")
    print(
        f"repro serve: listening on http://{config.host}:{port} "
        f"with {config.workers} worker process(es) "
        f"(schema v{API_SCHEMA_VERSION}; POST /v1/shutdown or Ctrl+C "
        f"to stop)",
        flush=True,
    )

    stop = threading.Event()
    gave_up = False
    quick_deaths = {index: 0 for index in shards}

    def _stop_signal(signum: int, frame: object) -> None:  # pragma: no cover
        stop.set()

    previous_term = signal.signal(signal.SIGTERM, _stop_signal)
    try:
        while not stop.is_set():
            for index, (process, started) in list(shards.items()):
                if process.is_alive():
                    continue
                if process.exitcode == 0:
                    # Graceful shutdown requested through this shard.
                    stop.set()
                    break
                if time.monotonic() - started < 1.0:
                    quick_deaths[index] += 1
                else:
                    quick_deaths[index] = 0
                if quick_deaths[index] >= 3:
                    print(
                        f"repro serve: worker {index} keeps dying on "
                        f"startup (exit {process.exitcode}); giving up",
                        flush=True,
                    )
                    gave_up = True
                    stop.set()
                    break
                print(
                    f"repro serve: worker {index} died "
                    f"(exit {process.exitcode}); respawning",
                    flush=True,
                )
                shards[index] = (spawn(index), time.monotonic())
            stop.wait(0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        for process, _started in shards.values():
            if process.is_alive():
                process.terminate()  # SIGTERM -> graceful in-shard
        deadline = time.monotonic() + 10
        for process, _started in shards.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - wedged shard
                process.kill()
                process.join(timeout=5)
        if can_fork:
            listener.close()
        signal.signal(signal.SIGTERM, previous_term)
        if config.port_file:
            Path(config.port_file).unlink(missing_ok=True)
        for path in Path(state_dir).glob("*"):
            path.unlink(missing_ok=True)
        try:
            os.rmdir(state_dir)
        except OSError:  # pragma: no cover - something still writing
            pass
    if gave_up:
        print("repro serve: shut down after a worker crash loop", flush=True)
        return 1
    print("repro serve: shut down cleanly", flush=True)
    return 0


def serve(config: ServeConfig) -> int:
    """Entry point the CLI calls: route on the topology."""
    if config.workers >= 1:
        return run_sharded(config)
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
    "WorkerHeartbeat",
    "run_server",
    "run_sharded",
    "serve",
]
