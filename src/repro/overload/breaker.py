"""Client-side circuit breaker for publishers.

The fault-model clients (:mod:`repro.faults.clients`) already retry with
backoff, but per-message backoff alone keeps *probing* a saturated
server: every generated message makes at least one attempt.  The circuit
breaker adds client-side admission control: after ``failure_threshold``
consecutive rejections the breaker OPENs and short-circuits submits
locally (no server round trip) until a recovery timeout elapses; then a
single HALF_OPEN probe decides between closing the circuit and
re-opening it with a multiplied timeout.

Probe timing uses seeded multiplicative jitter so a fleet of breakers
does not re-probe in lockstep (the retry-storm problem), while staying
reproducible for a fixed random stream.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with jittered recovery probes.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures in CLOSED state that open the circuit.
    recovery_timeout:
        Initial OPEN duration before the first HALF_OPEN probe.
    backoff_multiplier:
        Growth factor applied to the timeout when a probe fails.
    max_timeout:
        Cap on the un-jittered recovery timeout.
    jitter:
        Relative jitter half-width in [0, 1); each OPEN period is scaled
        by a uniform factor in ``[1 − jitter, 1 + jitter]``.
    rng:
        Seeded generator for the jitter; ``None`` disables jitter.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout: float = 1.0,
        backoff_multiplier: float = 2.0,
        max_timeout: float = 30.0,
        jitter: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout <= 0:
            raise ValueError(f"recovery_timeout must be positive, got {recovery_timeout}")
        if backoff_multiplier < 1.0:
            raise ValueError(f"backoff_multiplier must be >= 1, got {backoff_multiplier}")
        if max_timeout < recovery_timeout:
            raise ValueError("max_timeout must be >= recovery_timeout")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.backoff_multiplier = backoff_multiplier
        self.max_timeout = max_timeout
        self.jitter = jitter
        self.rng = rng
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._current_timeout = recovery_timeout
        self._retry_at: Optional[float] = None
        self._probe_outstanding = False
        self.opened_count = 0
        self.probes = 0
        self.short_circuited = 0

    @property
    def state(self) -> BreakerState:
        return self._state

    def snapshot(self) -> dict:
        """Breaker posture, for harnesses asserting on storm entry/exit."""
        return {
            "breaker_state": self._state.value,
            "breaker_opens": self.opened_count,
            "breaker_probes": self.probes,
            "breaker_short_circuited": self.short_circuited,
        }

    @property
    def retry_at(self) -> Optional[float]:
        """When the next HALF_OPEN probe becomes possible (OPEN state)."""
        return self._retry_at

    def allow(self, now: float) -> bool:
        """May an attempt be made right now?

        CLOSED always allows.  OPEN allows exactly one probe once the
        recovery timeout has elapsed (transitioning to HALF_OPEN); every
        other call is short-circuited — the caller should fail the send
        locally without touching the server.
        """
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            assert self._retry_at is not None
            if now >= self._retry_at:
                self._state = BreakerState.HALF_OPEN
                self._probe_outstanding = True
                self.probes += 1
                return True
            self.short_circuited += 1
            return False
        # HALF_OPEN: one probe at a time.
        if self._probe_outstanding:
            self.short_circuited += 1
            return False
        self._probe_outstanding = True
        self.probes += 1
        return True

    def record_success(self, now: float) -> None:
        """An attempt succeeded; HALF_OPEN closes, CLOSED resets failures."""
        self._consecutive_failures = 0
        self._probe_outstanding = False
        if self._state is not BreakerState.CLOSED:
            self._state = BreakerState.CLOSED
            self._current_timeout = self.recovery_timeout
            self._retry_at = None

    def record_failure(self, now: float) -> None:
        """An attempt failed (rejection, timeout, overload error)."""
        if self._state is BreakerState.HALF_OPEN:
            # The probe failed: re-open with a longer timeout.
            self._probe_outstanding = False
            self._current_timeout = min(
                self.max_timeout, self._current_timeout * self.backoff_multiplier
            )
            self._open(now)
            return
        if self._state is BreakerState.OPEN:
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._open(now)

    def _open(self, now: float) -> None:
        self._state = BreakerState.OPEN
        self.opened_count += 1
        self._consecutive_failures = 0
        timeout = self._current_timeout
        if self.jitter > 0 and self.rng is not None:
            timeout *= 1.0 + self.jitter * float(self.rng.uniform(-1.0, 1.0))
        self._retry_at = now + timeout
