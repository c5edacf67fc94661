"""Admission control: the token bucket and the in-flight gate."""

import pytest

from repro.api.dispatch import InflightGate, TokenBucket
from repro.api.types import ServerSaturatedError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal_with_wait_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s

    def test_refill_restores_admission(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(3600)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_zero_rate_disables_limiting(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.try_acquire() == 0.0 for _ in range(1000))

    def test_sub_one_burst_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    def test_default_burst_tracks_rate(self):
        assert TokenBucket(rate=8.0).burst == 8.0
        assert TokenBucket(rate=0.25).burst == 1.0


class TestInflightGate:
    def test_admits_to_limit_then_refuses(self):
        gate = InflightGate(2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        assert gate.depth == 2
        gate.exit()
        assert gate.try_enter()

    def test_context_manager_raises_429_error(self):
        gate = InflightGate(1, retry_after=2.5)
        with gate:
            with pytest.raises(ServerSaturatedError) as excinfo:
                with gate:
                    pass
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 2.5
        assert gate.depth == 0

    def test_exit_on_exception_path(self):
        gate = InflightGate(1)
        with pytest.raises(RuntimeError):
            with gate:
                raise RuntimeError("boom")
        assert gate.depth == 0

    def test_zero_limit_disables_bound(self):
        gate = InflightGate(0)
        for _ in range(100):
            assert gate.try_enter()

