"""Fault-tolerant publisher clients.

These extend the testbed publishers with the resilience loop a real JMS
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
from ..overload import CircuitBreaker
from ..resilience.budget import RetryBudget
from ..simulation import Engine
from ..testbed.simserver import SimulatedJMSServer, SubmitHandle
from .retry import RetryPolicy

__all__ = ["RetryingPoissonPublisher", "ReliablePublisher"]


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

    An optional :class:`~repro.overload.breaker.CircuitBreaker` composes
    with the retry loop: while the breaker is OPEN, an attempt is
    short-circuited locally — it consumes a retry slot and goes back on
    the backoff timer without touching the server, so a saturated or dead
    server is not hammered by every backlogged message at once.  Accepted
    submits record a success, rejections (including credit timeouts)
    record a failure.

    An optional :class:`~repro.resilience.budget.RetryBudget` caps the
    aggregate retry rate at ``β · successes + min_rate`` — the clip that
    removes the storm fixed point of :mod:`repro.core.resilience`.  A
    failed attempt whose retry the bucket denies is *abandoned* (counted
    in both ``abandoned`` and ``budget_denied``) instead of amplified.
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
        breaker: Optional[CircuitBreaker] = None,
        router: Optional[Callable[[], SimulatedJMSServer]] = None,
        budget: Optional[RetryBudget] = None,
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
        self.breaker = breaker
        self.budget = budget
        #: Resolves the current leader before every attempt (HA failover).
        #: The retry loop already defers messages across outages; with a
        #: router, a *failover* redirects the same in-flight messages to
        #: the newly promoted server instead of hammering the dead one.
        self.router = router
        self.generated = 0
        self.accepted = 0
        self.retries = 0
        self.timeouts = 0
        self.abandoned = 0
        #: Subset of ``abandoned`` forced by an empty retry budget.
        self.budget_denied = 0
        #: Times an attempt found the router pointing at a new server.
        self.failovers = 0
        self._accept_latency_sum = 0.0

    def _resolve_server(self) -> SimulatedJMSServer:
        if self.router is None:
            return self.server
        server = self.router()
        if server is not self.server:
            self.failovers += 1
            self.server = server
        return server

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
        if self.breaker is not None and not self.breaker.allow(self.engine.now):
            # Open breaker: back off locally without an attempt on the wire.
            self._on_failure(message, attempt, born, breaker_failure=False)
            return
        handle = self._resolve_server().submit(
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
        if self.breaker is not None:
            self.breaker.record_success(self.engine.now)
        if self.budget is not None:
            self.budget.record_success(self.engine.now)
        self.accepted += 1
        self._accept_latency_sum += self.engine.now - born

    def _on_timeout(self, handle: SubmitHandle, attempt: int, born: float) -> None:
        if handle.cancel():
            self.timeouts += 1
            self._on_failure(handle.message, attempt, born)

    def _on_failure(
        self, message: Message, attempt: int, born: float, breaker_failure: bool = True
    ) -> None:
        if breaker_failure and self.breaker is not None:
            self.breaker.record_failure(self.engine.now)
        if self.policy.exhausted(attempt, elapsed=self.engine.now - born):
            self.abandoned += 1
            return
        if self.budget is not None and not self.budget.allow_retry(self.engine.now):
            # Empty bucket: abandon instead of amplifying — this is the
            # cap that keeps λ_eff at the stable fixed point.
            self.budget_denied += 1
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


class ReliablePublisher:
    """Closed-loop publisher that retries each message until accepted.

    The fault-tolerant cousin of the testbed's ``SaturatedPublisher``:
    one outstanding message at a time, but a rejection (server down) puts
    the *same* message on the backoff timer instead of dropping it.  Used
    to verify that a finite workload drains completely across outages.
    """

    def __init__(
        self,
        engine: Engine,
        server: SimulatedJMSServer,
        message_factory: Callable[[], Message],
        policy: RetryPolicy,
        retry_rng: Optional[np.random.Generator] = None,
        name: str = "reliable-publisher",
        total_messages: Optional[int] = None,
        router: Optional[Callable[[], SimulatedJMSServer]] = None,
        budget: Optional[RetryBudget] = None,
    ):
        self.engine = engine
        self.server = server
        self.message_factory = message_factory
        self.policy = policy
        self.retry_rng = retry_rng
        self.name = name
        self.total_messages = total_messages
        #: Resolves the current leader before every attempt (HA failover).
        self.router = router
        self.budget = budget
        self.sent = 0
        self.retries = 0
        self.abandoned = 0
        #: Subset of ``abandoned`` forced by an empty retry budget.
        self.budget_denied = 0
        #: Times an attempt found the router pointing at a new server.
        self.failovers = 0
        self._stopped = False

    def _resolve_server(self) -> SimulatedJMSServer:
        if self.router is None:
            return self.server
        server = self.router()
        if server is not self.server:
            self.failovers += 1
            self.server = server
        return server

    def start(self) -> None:
        self._offer_next()

    def stop(self) -> None:
        self._stopped = True

    @property
    def done(self) -> bool:
        return self.total_messages is not None and self.sent >= self.total_messages

    def _offer_next(self) -> None:
        if self._stopped or self.done:
            return
        self._attempt(self.message_factory(), attempt=0)

    def _attempt(self, message: Message, attempt: int) -> None:
        self._resolve_server().submit(
            message,
            on_accept=self._on_accept,
            on_reject=lambda error: self._on_reject(message, attempt),
        )

    def _on_accept(self) -> None:
        if self.budget is not None:
            self.budget.record_success(self.engine.now)
        self.sent += 1
        self._offer_next()

    def _on_reject(self, message: Message, attempt: int) -> None:
        if self.policy.exhausted(attempt):
            self.abandoned += 1
            self._offer_next()
            return
        if self.budget is not None and not self.budget.allow_retry(self.engine.now):
            self.budget_denied += 1
            self.abandoned += 1
            self._offer_next()
            return
        self.retries += 1
        delay = self.policy.delay(attempt, self.retry_rng)
        self.engine.call_in(delay, lambda: self._attempt(message, attempt + 1))
