"""Admission control and batched dispatch for the serve front-end.

Three small, separately testable pieces:

* :class:`TokenBucket` -- a classic token-bucket rate limiter (``rate``
  requests/second sustained, ``burst`` extra headroom).  ``try_acquire``
  never blocks; on refusal it returns the seconds until a token exists,
  which the front-end surfaces as ``Retry-After``.
* :class:`InflightGate` -- a bounded in-flight counter.  Admission is
  non-blocking: a request over the bound is refused immediately (HTTP
  429) instead of queueing invisibly, so clients and load balancers see
  saturation the moment it happens.
* :class:`BatchDispatcher` -- the throughput core of a serve worker.
  Handler threads do not run engine jobs themselves; they enqueue
  ``(job, future)`` and block on the future.  One dispatcher thread
  drains the queue -- everything that arrived, plus a tiny *linger* to
  let concurrently-arriving co-travellers join -- and executes the whole
  batch as **one** ``Engine.map`` call.  That hands the engine a real
  batch, so its grid batching (one shared
  :class:`repro.kernel.batch.LoopChain` per loop group, see PR 6) and
  in-batch single-flight dedup apply *across HTTP requests*: N
  concurrent clients asking for N points of the same loop cost one
  schedule, and N clients asking for the same point cost one evaluation.
  A lone request still dispatches immediately after the linger (bounded
  added latency), so the batch path is never slower than per-request
  dispatch by more than the linger.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Callable

from repro.api.types import ServerSaturatedError
from repro.engine.jobs import EvalJob, JobResult

if TYPE_CHECKING:
    from repro.api.session import Session


class TokenBucket:
    """Thread-safe token bucket; ``rate <= 0`` disables limiting.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(self.rate, 1.0)
        if self.rate > 0 and self.burst < 1.0:
            raise ValueError("burst must allow at least one request")
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        """Take one token; returns 0.0 on success, else seconds to wait."""
        if self.rate <= 0:
            return 0.0
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class InflightGate:
    """Bounded in-flight admission; refuses instead of queueing.

    ``limit <= 0`` disables the bound.  ``depth`` is a lock-free read of
    the current in-flight count for the health endpoint.
    """

    def __init__(self, limit: int, retry_after: float = 1.0) -> None:
        self.limit = int(limit)
        self.retry_after = retry_after
        self._count = 0
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        return self._count

    def try_enter(self) -> bool:
        with self._lock:
            if self.limit > 0 and self._count >= self.limit:
                return False
            self._count += 1
            return True

    def exit(self) -> None:
        with self._lock:
            self._count = max(0, self._count - 1)

    def __enter__(self) -> "InflightGate":
        if not self.try_enter():
            raise ServerSaturatedError(
                f"server is at its in-flight capacity of {self.limit} "
                f"request(s); retry shortly",
                retry_after=self.retry_after,
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.exit()


class BatchDispatcher:
    """Coalesce concurrent engine jobs into single ``Engine.map`` calls.

    ``session`` provides the engine and the lock discipline (the batch
    executes under the session lock, like every other engine access).
    ``linger`` bounds the extra latency a lone request pays waiting for
    co-travellers; ``max_batch`` bounds how much work one dispatch round
    may bite off, so a flood cannot starve the queue behind one giant
    batch.
    """

    def __init__(
        self,
        session: "Session",
        linger: float = 0.002,
        max_batch: int = 512,
    ) -> None:
        if linger < 0:
            raise ValueError("linger must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.session = session
        self.linger = linger
        self.max_batch = max_batch
        self.batches_run = 0
        self.jobs_batched = 0
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._started = False
        self._closed = False
        self._start_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs waiting for (or riding in) a dispatch round."""
        return self._queue.qsize()

    def submit(self, job: EvalJob) -> tuple[JobResult, bool]:
        """Execute ``job`` via the next batch; returns ``(result, cached)``.

        Called from handler threads; blocks until the dispatcher round
        carrying the job completes.  Exceptions from the engine re-raise
        here, in the submitting thread.
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        self._ensure_thread()
        future: Future = Future()
        self._queue.put((job, future))
        return future.result()

    def close(self) -> None:
        """Stop the dispatcher thread after the current round."""
        self._closed = True
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=10)

    # ------------------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._started:
            return
        with self._start_lock:
            if self._started:
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-batch-dispatch", daemon=True
            )
            self._thread.start()
            self._started = True

    def _drain(
        self, first: tuple[EvalJob, Future]
    ) -> list[tuple[EvalJob, Future]]:
        """One round's worth of work: ``first`` plus the linger window."""
        batch = [first]
        deadline = time.monotonic() + self.linger
        while len(batch) < self.max_batch:
            timeout = deadline - time.monotonic()
            try:
                if timeout <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=timeout)
            except queue.Empty:
                break
            if item is None:  # close sentinel: finish this round, stop
                self._closed = True
                break
            batch.append(item)
        return batch

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = self._drain(item)
            jobs = [job for job, _future in batch]
            flags: list[bool] = []
            try:
                with self.session._lock:
                    results = self.session._map_points(jobs, flags)
                    self.session.requests_served += len(jobs)
            except BaseException as exc:  # noqa: BLE001 - fan the fault out
                for _job, future in batch:
                    future.set_exception(exc)
            else:
                self.batches_run += 1
                self.jobs_batched += len(jobs)
                for (_job, future), result, cached in zip(
                    batch, results, flags
                ):
                    future.set_result((result, cached))
            if self._closed:
                return


__all__ = ["BatchDispatcher", "InflightGate", "TokenBucket"]
