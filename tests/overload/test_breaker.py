"""Circuit breaker: state transitions, probes, backoff and jitter."""

import numpy as np
import pytest

from repro.overload import BreakerState, CircuitBreaker


def make(jitter=0.0, **kwargs):
    defaults = dict(failure_threshold=3, recovery_timeout=1.0, jitter=jitter)
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestClosed:
    def test_allows_until_threshold(self):
        breaker = make()
        for t in range(3):
            assert breaker.allow(float(t))
            breaker.record_failure(float(t))
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1

    def test_success_resets_consecutive_failures(self):
        breaker = make()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state is BreakerState.CLOSED


class TestOpen:
    def test_short_circuits_until_timeout(self):
        breaker = make()
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.retry_at == pytest.approx(3.0)  # opened at t=2, timeout 1
        assert not breaker.allow(2.5)
        assert not breaker.allow(2.9)
        assert breaker.short_circuited == 2

    def test_probe_after_timeout(self):
        breaker = make()
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.allow(3.5)  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.probes == 1

    def test_failures_while_open_ignored(self):
        breaker = make()
        for t in range(3):
            breaker.record_failure(float(t))
        breaker.record_failure(2.5)  # e.g. a late in-flight rejection
        assert breaker.retry_at == pytest.approx(3.0)  # unchanged


class TestHalfOpen:
    def opened_probing(self):
        breaker = make()
        for t in range(3):
            breaker.record_failure(float(t))
        assert breaker.allow(3.5)
        return breaker

    def test_single_outstanding_probe(self):
        breaker = self.opened_probing()
        assert not breaker.allow(3.6)  # second attempt while probe is out
        assert breaker.short_circuited == 1

    def test_probe_success_closes_and_resets_timeout(self):
        breaker = self.opened_probing()
        breaker.record_success(3.7)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.retry_at is None
        # A fresh trip uses the base timeout again.
        for t in range(3):
            breaker.record_failure(4.0 + t)
        assert breaker.retry_at == pytest.approx(7.0)

    def test_probe_failure_reopens_with_backoff(self):
        breaker = self.opened_probing()
        breaker.record_failure(3.7)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        assert breaker.retry_at == pytest.approx(3.7 + 2.0)  # 1.0 * multiplier 2

    def test_backoff_capped_at_max_timeout(self):
        breaker = make(max_timeout=3.0)
        now = 0.0
        for _ in range(3):
            breaker.record_failure(now)
            now += 0.1
        for _ in range(6):  # repeated failed probes: 2.0, 3.0, 3.0, ...
            now = breaker.retry_at + 0.1
            assert breaker.allow(now)
            breaker.record_failure(now)
        assert breaker.retry_at - now == pytest.approx(3.0)


class TestJitter:
    def test_jitter_within_bounds_and_seeded(self):
        rng = np.random.default_rng(42)
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=10.0, jitter=0.2, rng=rng
        )
        breaker.record_failure(0.0)
        assert 8.0 <= breaker.retry_at <= 12.0
        # Same seed, same jitter draw.
        other = CircuitBreaker(
            failure_threshold=1,
            recovery_timeout=10.0,
            jitter=0.2,
            rng=np.random.default_rng(42),
        )
        other.record_failure(0.0)
        assert other.retry_at == breaker.retry_at

    def test_no_rng_means_no_jitter(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=10.0, jitter=0.2)
        breaker.record_failure(0.0)
        assert breaker.retry_at == pytest.approx(10.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_threshold": 0},
        {"recovery_timeout": 0.0},
        {"backoff_multiplier": 0.5},
        {"recovery_timeout": 5.0, "max_timeout": 1.0},
        {"jitter": 1.0},
    ],
)
def test_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        CircuitBreaker(**kwargs)


class TestSnapshot:
    def test_breaker_posture_reads_from_its_own_snapshot(self):
        breaker = make(failure_threshold=1, recovery_timeout=1.0)
        breaker.record_failure(0.0)  # opens
        breaker.allow(0.5)  # short-circuited while OPEN
        snap = breaker.snapshot()
        assert snap["breaker_state"] == "open"
        assert snap["breaker_opens"] == 1
        assert snap["breaker_short_circuited"] == 1
