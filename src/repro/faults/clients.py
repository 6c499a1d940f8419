"""The fault-tolerant publisher client.

It extends the testbed publishers with the resilience loop a real JMS
client needs once the server can crash: fail-fast rejections trigger
backoff-and-retry, submits blocked on a dead credit are cancelled after a
timeout, and every message is tracked until it is accepted or abandoned.

Lives here (not in :mod:`repro.testbed`) so the dependency arrow stays
one-way: ``faults`` imports ``testbed``, never the reverse.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..broker import Message
from ..simulation import Engine
from ..testbed.simserver import SimulatedJMSServer, SubmitHandle
from .retry import RetryPolicy

__all__ = ["RetryingPoissonPublisher"]


class RetryingPoissonPublisher:
    """Open-loop Poisson arrivals with per-message backoff retry.

    New messages are *generated* by a Poisson process exactly like
    :class:`repro.testbed.publishers.PoissonPublisher`; each generated
    message is then *delivered* by an independent retry loop, so a server
    outage never thins the arrival process — it only defers acceptance.
    That keeps the offered load λ of the M/G/1 analysis intact across
    faults, which is what lets the availability model predict the
    post-restart backlog.

    Counters: ``generated`` (arrival process), ``accepted`` (server took
    the message), ``retries`` (failed attempts retried), ``timeouts``
    (credit waits cancelled), ``abandoned`` (gave up per policy).  The
    publisher also accumulates each message's *accept latency* (generation
    to server acceptance): during an outage a message's wait is spent in
    the retry loop, invisible to the server's ingress-queue clock, so
    end-to-end waiting time is ``mean_accept_latency`` plus the server's
    measured queueing wait.
    """

    def __init__(
        self,
        engine: Engine,
        server: SimulatedJMSServer,
        rate: float,
        message_factory: Callable[[], Message],
        rng: np.random.Generator,
        policy: RetryPolicy,
        retry_rng: Optional[np.random.Generator] = None,
        name: str = "retrying-publisher",
        stop_time: Optional[float] = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.engine = engine
        self.server = server
        self.rate = float(rate)
        self.message_factory = message_factory
        self.rng = rng
        self.retry_rng = retry_rng if retry_rng is not None else rng
        self.policy = policy
        self.name = name
        self.stop_time = stop_time
        self.generated = 0
        self.accepted = 0
        self.retries = 0
        self.timeouts = 0
        self.abandoned = 0
        self._accept_latency_sum = 0.0

    # -- arrival process ------------------------------------------------
    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.rate))
        self.engine.call_in(gap, self._generate)

    def _generate(self) -> None:
        if self.stop_time is not None and self.engine.now >= self.stop_time:
            return
        self.generated += 1
        self._attempt(self.message_factory(), attempt=0, born=self.engine.now)
        self._schedule_next()

    # -- delivery loop --------------------------------------------------
    def _attempt(self, message: Message, attempt: int, born: float) -> None:
        handle = self.server.submit(
            message,
            on_accept=lambda: self._on_accept(born),
            on_reject=lambda error: self._on_failure(message, attempt, born),
        )
        if handle.pending and self.policy.credit_timeout is not None:
            self.engine.call_in(
                self.policy.credit_timeout,
                lambda: self._on_timeout(handle, attempt, born),
            )

    def _on_accept(self, born: float) -> None:
        self.accepted += 1
        self._accept_latency_sum += self.engine.now - born

    def _on_timeout(self, handle: SubmitHandle, attempt: int, born: float) -> None:
        if handle.cancel():
            self.timeouts += 1
            self._on_failure(handle.message, attempt, born)

    def _on_failure(self, message: Message, attempt: int, born: float) -> None:
        if self.policy.exhausted(attempt, elapsed=self.engine.now - born):
            self.abandoned += 1
            return
        self.retries += 1
        delay = self.policy.delay(attempt, self.retry_rng)
        self.engine.call_in(delay, lambda: self._attempt(message, attempt + 1, born))

    @property
    def in_flight(self) -> int:
        """Messages generated but neither accepted nor abandoned yet."""
        return self.generated - self.accepted - self.abandoned

    @property
    def mean_accept_latency(self) -> float:
        """Mean generation-to-acceptance delay over accepted messages."""
        return self._accept_latency_sum / self.accepted if self.accepted else 0.0
