"""Deadline-propagating, budget-gated, hedging publisher clients.

:class:`DeadlineRetryPublisher` is the client half of the resilience
story: an open-loop Poisson generator whose every fresh message carries a
client-side *delivery deadline*.  A rejected attempt (loss channel) or an
attempt not delivered within the deadline (late channel) is retried up to
``max_retries`` times — exactly the retry map whose fixed points
:mod:`repro.core.resilience` analyses.  Three optional protections bound
the amplification:

- ``attach_deadline`` stamps each attempt's remaining budget into
  ``Message.expiration``, so the broker's deadline-propagation stages
  (ingress shed, pre-service shed, expiry-on-hop, drain-time expiry) can
  kill dead work *before* paying its service cost;
- a :class:`~repro.resilience.budget.RetryBudget` clips aggregate retries
  at ``β · successes + min_rate`` — the cap that removes the storm fixed
  point;
- a :class:`~repro.resilience.hedge.HedgePolicy` sends a speculative
  duplicate after a p99-derived delay; the copy shares the primary's
  ``message_id`` so the server's ``hedge_dedup`` memo keeps delivery
  exactly-once, and first-wins cancellation withdraws the loser while it
  is still queued at the flow-control gate.

:class:`DeliveryLog` closes the loop: installed as every subscriber's
``on_message`` hook it records first-delivery times, detects duplicate
(subscriber, message) deliveries, and counts any expired message that
slipped through to dispatch — the harness's "zero dead work delivered"
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..broker.message import DeliveredMessage, Message
from ..simulation import Engine
from ..testbed.simserver import SimulatedJMSServer, SubmitHandle
from .budget import RetryBudget
from .hedge import HedgePolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

    from ..broker.server import Broker

__all__ = ["DeliveryLog", "DeadlineRetryPublisher"]


class DeliveryLog:
    """First-delivery registry shared by all subscribers of one broker.

    Install with :meth:`install`; each dispatched copy lands here.  The
    log keeps the *first* delivery time per message id (what the client's
    deadline check consults), flags duplicate deliveries of the same
    message to the same subscriber (must stay zero while ``hedge_dedup``
    holds), and counts deliveries of already-expired messages (must stay
    zero — the broker refuses to dispatch dead work).
    """

    __slots__ = ("engine", "delivered", "double_deliveries", "expired_delivered",
                 "_seen", "_watchers", "drain_inboxes")

    def __init__(self, engine: Engine, drain_inboxes: bool = True) -> None:
        self.engine = engine
        #: message id → virtual time of its first dispatched copy.
        self.delivered: Dict[int, float] = {}
        #: Same message dispatched twice to the same subscriber.
        self.double_deliveries = 0
        #: Deliveries of messages already past their deadline.
        self.expired_delivered = 0
        self._seen: Set[Tuple[str, int]] = set()
        self._watchers: Dict[int, List[Callable[[float], None]]] = {}
        self.drain_inboxes = drain_inboxes

    def install(self, broker: "Broker") -> int:
        """Hook every current subscriber of ``broker``; returns the count."""
        count = 0
        for subscriber_id in list(broker.subscriber_ids()):
            subscriber = broker.get_subscriber(subscriber_id)
            subscriber.on_message = self._hook_for(subscriber)
            count += 1
        return count

    def _hook_for(self, subscriber) -> Callable[[DeliveredMessage], None]:
        def hook(delivery: DeliveredMessage) -> None:
            self.record(delivery)
            if self.drain_inboxes:
                subscriber.inbox.clear()

        return hook

    def record(self, delivery: DeliveredMessage) -> None:
        now = self.engine.now
        message = delivery.message
        if message.expired(now):
            self.expired_delivered += 1
        key = (delivery.subscriber_id, message.message_id)
        if key in self._seen:
            self.double_deliveries += 1
        self._seen.add(key)
        if message.message_id not in self.delivered:
            self.delivered[message.message_id] = now
            for callback in self._watchers.pop(message.message_id, []):
                callback(now)

    def watch(self, message_id: int, callback: Callable[[float], None]) -> None:
        """Invoke ``callback(now)`` on the id's first delivery (push side
        of first-wins cancellation)."""
        if message_id in self.delivered:
            callback(self.delivered[message_id])
            return
        self._watchers.setdefault(message_id, []).append(callback)

    def delivered_at(self, message_id: int) -> Optional[float]:
        return self.delivered.get(message_id)


@dataclass
class _FreshMessage:
    """Client-side bookkeeping for one generated (fresh) message."""

    born: float
    succeeded: bool = False
    abandoned: bool = False
    #: Attempt indices whose outcome is already known (rejected), so the
    #: deadline check does not fire a second retry for the same attempt.
    resolved: Set[int] = field(default_factory=set)
    #: Outstanding hedge submit handles, cancelled on first delivery.
    hedge_handles: List[SubmitHandle] = field(default_factory=list)


class DeadlineRetryPublisher:
    """Open-loop Poisson publisher with per-message delivery deadlines.

    Every fresh message starts a delivery loop: attempt 0 goes out
    immediately; a *loss* (the server sheds the attempt and reports it)
    retries after ``retry_delay``; a *late* attempt — not delivered
    within ``timeout`` of its send — retries as well when ``late_retry``
    is set.  A fresh message succeeds the first time any of its attempts
    is dispatched within ``timeout`` of that attempt's send time; those
    successes are the client's **goodput**.

    The publisher is deliberately storm-capable: with ``late_retry`` and
    no budget it reproduces the unbudgeted client of the fixed-point
    model, whose offered rate settles on whichever fixed point the
    transient left it near.  The instruments (``attempt_times``,
    ``goodput_times``) let harnesses measure windowed λ_eff and goodput
    without touching internals.
    """

    def __init__(
        self,
        engine: Engine,
        server: SimulatedJMSServer,
        rate: float,
        message_factory: Callable[[], Message],
        rng: "np.random.Generator",
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_delay: float = 0.0,
        retry_jitter: float = 0.0,
        retry_rng: Optional["np.random.Generator"] = None,
        late_retry: bool = False,
        attach_deadline: bool = False,
        budget: Optional[RetryBudget] = None,
        hedge: Optional[HedgePolicy] = None,
        log: Optional[DeliveryLog] = None,
        stop_time: Optional[float] = None,
        name: str = "deadline-publisher",
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_delay < 0:
            raise ValueError(f"retry_delay must be >= 0, got {retry_delay}")
        if not 0.0 <= retry_jitter < 1.0:
            raise ValueError(f"retry_jitter must be in [0, 1), got {retry_jitter}")
        if late_retry and timeout is None:
            raise ValueError("late_retry needs a timeout to define lateness")
        if attach_deadline and timeout is None:
            raise ValueError("attach_deadline needs a timeout to attach")
        if hedge is not None and log is None:
            raise ValueError("hedging needs a DeliveryLog for first-wins")
        self.engine = engine
        self.server = server
        self.rate = float(rate)
        self.message_factory = message_factory
        self.rng = rng
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_delay = float(retry_delay)
        self.retry_jitter = float(retry_jitter)
        self.retry_rng = retry_rng if retry_rng is not None else rng
        self.late_retry = late_retry
        self.attach_deadline = attach_deadline
        self.budget = budget
        self.hedge = hedge
        self.log = log
        self.stop_time = stop_time
        self.name = name
        # -- counters ---------------------------------------------------
        self.generated = 0
        self.attempts = 0
        self.accepted = 0
        self.rejected = 0
        self.loss_retries = 0
        self.late_retries = 0
        self.abandoned = 0
        #: Subset of ``abandoned`` forced by an empty retry budget.
        self.budget_denied = 0
        self.hedges = 0
        self.hedges_cancelled = 0
        #: Fresh messages delivered within their deadline.
        self.goodput = 0
        #: Deliveries that landed after the attempt's deadline (garbage
        #: work the server paid for anyway).
        self.late_deliveries = 0
        #: Send time of every attempt (windowed λ_eff measurement).
        self.attempt_times: List[float] = []
        #: First on-time delivery time per fresh message (goodput rate).
        self.goodput_times: List[float] = []

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
        self._attempt(_FreshMessage(born=self.engine.now), attempt=0)
        self._schedule_next()

    # -- delivery loop --------------------------------------------------
    def _attempt(self, state: _FreshMessage, attempt: int) -> None:
        now = self.engine.now
        message = self.message_factory()
        if self.attach_deadline:
            assert self.timeout is not None
            # Deadline propagation starts here: the attempt's remaining
            # budget rides in the message itself, so every broker stage
            # downstream can shed it the moment it goes dead.
            message.expiration = now + self.timeout
        self.attempts += 1
        self.attempt_times.append(now)
        self.server.submit(
            message,
            on_accept=lambda: self._on_accept(),
            on_reject=lambda error: self._on_reject(state, attempt),
        )
        if self.log is not None:
            self.log.watch(
                message.message_id,
                lambda at, sent=now: self._on_delivered(state, sent, at),
            )
        if self.timeout is not None:
            self.engine.call_in(
                self.timeout,
                lambda: self._check_deadline(state, message, attempt),
            )
        if self.hedge is not None:
            for fire_at in self.hedge.hedge_times(now):
                self.engine.call_at(
                    fire_at, lambda m=message: self._maybe_hedge(state, m)
                )

    def _on_accept(self) -> None:
        self.accepted += 1
        if self.budget is not None:
            self.budget.record_success(self.engine.now)

    def _on_reject(self, state: _FreshMessage, attempt: int) -> None:
        self.rejected += 1
        state.resolved.add(attempt)
        self._maybe_retry(state, attempt, late=False)

    def _on_delivered(self, state: _FreshMessage, sent: float, at: float) -> None:
        # First delivery of this attempt's message id (primary or hedge —
        # they share the id, so whichever wins reports here exactly once).
        for handle in state.hedge_handles:
            if handle.cancel():
                self.hedges_cancelled += 1
        state.hedge_handles.clear()
        if state.succeeded:
            return
        if self.timeout is None or at - sent <= self.timeout:
            state.succeeded = True
            self.goodput += 1
            self.goodput_times.append(at)
        else:
            self.late_deliveries += 1

    def _check_deadline(
        self, state: _FreshMessage, message: Message, attempt: int
    ) -> None:
        if state.succeeded or state.abandoned or attempt in state.resolved:
            return
        if self.log is not None and self.log.delivered_at(message.message_id) is not None:
            # Delivered (possibly exactly at the boundary); _on_delivered
            # already classified it as goodput or late.
            return
        state.resolved.add(attempt)
        if self.late_retry:
            self._maybe_retry(state, attempt, late=True)

    def _maybe_retry(self, state: _FreshMessage, attempt: int, late: bool) -> None:
        if state.succeeded or state.abandoned:
            return
        if attempt >= self.max_retries:
            state.abandoned = True
            self.abandoned += 1
            return
        if self.budget is not None and not self.budget.allow_retry(self.engine.now):
            # Empty bucket: abandon instead of amplifying — the clip that
            # removes the storm fixed point.
            state.abandoned = True
            self.budget_denied += 1
            self.abandoned += 1
            return
        if late:
            self.late_retries += 1
        else:
            self.loss_retries += 1
        delay = self.retry_delay
        if delay > 0 and self.retry_jitter > 0:
            # Jitter decorrelates a retry from the exact queue state its
            # predecessor was shed in — the fixed-point model assumes each
            # attempt sees the stationary loss probability.
            delay *= 1.0 + self.retry_jitter * float(self.retry_rng.uniform(-1.0, 1.0))
        self.engine.call_in(delay, lambda: self._attempt(state, attempt + 1))

    def _maybe_hedge(self, state: _FreshMessage, message: Message) -> None:
        if state.succeeded or state.abandoned:
            return
        if self.log is not None and self.log.delivered_at(message.message_id) is not None:
            return
        # The copy shares message_id and expiration: dedup keeps delivery
        # exactly-once, deadline propagation keeps the copy sheddable.
        self.hedges += 1
        handle = self.server.submit(replace(message))
        if handle.pending:
            state.hedge_handles.append(handle)

    # -- instruments ----------------------------------------------------
    @property
    def retries(self) -> int:
        return self.loss_retries + self.late_retries

    def attempt_rate(self, start: float, end: float) -> float:
        """Measured λ_eff over the window ``[start, end)``."""
        if end <= start:
            raise ValueError(f"window must have positive length, got [{start}, {end})")
        count = sum(1 for t in self.attempt_times if start <= t < end)
        return count / (end - start)

    def goodput_rate(self, start: float, end: float) -> float:
        """On-time deliveries per second over the window ``[start, end)``."""
        if end <= start:
            raise ValueError(f"window must have positive length, got [{start}, {end})")
        count = sum(1 for t in self.goodput_times if start <= t < end)
        return count / (end - start)
