"""Token-bucket retry budget — the client-side storm breaker.

The fixed-point model (:mod:`repro.core.resilience`) shows the retry map
``T(x)`` loses its storm fixed point once aggregate retries are capped at
``β · successes + min_rate``.  This class *is* that cap, enforced where
retries are born: every success deposits ``ratio`` tokens, a small
``min_rate`` floor accrues with time (so a fully-failing client can still
probe), and each retry withdraws one token.  When the bucket is empty the
retry is denied and the message is abandoned instead of amplified.

Deliberately not thread-aware: like everything else in the testbed it
runs inside the single-threaded DES.  :meth:`RetryBudget.snapshot`
exposes the counters so harnesses can assert on storm entry/exit.
"""

from __future__ import annotations

__all__ = ["RetryBudget"]


class RetryBudget:
    """Shared token bucket gating retries across one or more publishers.

    Parameters
    ----------
    ratio:
        β — tokens deposited per successful attempt.  Steady-state retry
        rate is then at most ``β · success_rate + min_rate``, the cap the
        fixed-point model clips the retry map with.
    min_rate:
        Token accrual floor in tokens/second, so a client whose every
        attempt fails retains a trickle of retries to probe recovery
        with (otherwise a denied bucket could never refill).
    burst:
        Bucket capacity — bounds how many retries can fire back-to-back
        after a long quiet stretch.
    initial:
        Tokens in the bucket at construction (clamped to ``burst``).
    """

    __slots__ = (
        "ratio",
        "min_rate",
        "burst",
        "_tokens",
        "_accrued_at",
        "granted",
        "denied",
        "deposited",
    )

    def __init__(
        self,
        ratio: float = 0.1,
        min_rate: float = 0.0,
        burst: float = 10.0,
        initial: float = 0.0,
    ) -> None:
        if ratio < 0:
            raise ValueError(f"ratio must be >= 0, got {ratio}")
        if min_rate < 0:
            raise ValueError(f"min_rate must be >= 0, got {min_rate}")
        if burst <= 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self.ratio = ratio
        self.min_rate = min_rate
        self.burst = burst
        self._tokens = min(float(initial), burst)
        self._accrued_at = 0.0
        #: Retries the bucket allowed.
        self.granted = 0
        #: Retries the bucket refused (the storm that did not happen).
        self.denied = 0
        #: Tokens deposited by successes (mirrors success count × β).
        self.deposited = 0.0

    def _accrue(self, now: float) -> None:
        if now > self._accrued_at:
            self._tokens = min(
                self.burst, self._tokens + self.min_rate * (now - self._accrued_at)
            )
            self._accrued_at = now

    def record_success(self, now: float) -> None:
        """One attempt succeeded — deposit β tokens."""
        self._accrue(now)
        self._tokens = min(self.burst, self._tokens + self.ratio)
        self.deposited += self.ratio

    def allow_retry(self, now: float) -> bool:
        """Withdraw one token; ``False`` means *abandon, do not retry*."""
        self._accrue(now)
        # Tolerate accumulation dust: ten deposits of 0.1 must fund one
        # retry even though their float sum is a hair under 1.0.
        if self._tokens >= 1.0 - 1e-9:
            self._tokens = max(0.0, self._tokens - 1.0)
            self.granted += 1
            return True
        self.denied += 1
        return False

    @property
    def tokens(self) -> float:
        """Current bucket level (diagnostic only — does not accrue)."""
        return self._tokens

    def snapshot(self) -> dict:
        return {
            "retry_budget_tokens": self._tokens,
            "retry_budget_granted": self.granted,
            "retry_budget_denied": self.denied,
            "retry_budget_deposited": self.deposited,
        }

    def __repr__(self) -> str:
        return (
            f"RetryBudget(ratio={self.ratio}, min_rate={self.min_rate}, "
            f"tokens={self._tokens:.2f}, granted={self.granted}, "
            f"denied={self.denied})"
        )
