"""Admission control for the serve front-end.

Two small, separately testable pieces:

* :class:`TokenBucket` -- a classic token-bucket rate limiter (``rate``
  requests/second sustained, ``burst`` extra headroom).  ``try_acquire``
  never blocks; on refusal it returns the seconds until a token exists,
  which the front-end surfaces as ``Retry-After``.
* :class:`InflightGate` -- a bounded in-flight counter.  Admission is
  non-blocking: a request over the bound is refused immediately (HTTP
  429) instead of queueing invisibly, so clients and load balancers see
  saturation the moment it happens.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.api.types import ServerSaturatedError


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


__all__ = ["InflightGate", "TokenBucket"]
