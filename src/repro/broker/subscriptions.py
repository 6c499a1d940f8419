"""Subscribers and subscriptions.

Each subscriber holds exactly one subscription with exactly one filter (the
JMS rule the paper relies on: "Each subscriber has only a single filter").
Non-durable subscribers receive messages only while connected; durable
subscribers additionally drain messages retained while they were offline
(Section II-A).  The paper measures the persistent *non-durable* mode, but
the broker implements both so the mode comparison is testable.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from .errors import SubscriptionError
from .filters import MatchAllFilter, MessageFilter
from .message import DeliveredMessage, Message
from .queues import DropPolicy
from .topics import Topic

__all__ = ["Subscriber", "Subscription"]

_subscription_ids = itertools.count(1)


class Subscriber:
    """A message consumer endpoint.

    Messages dispatched to a connected subscriber land in :attr:`inbox`
    (and trigger ``on_message`` when set).  The inbox models the consumer's
    receive queue; the paper's subscriber machines drain it fast enough
    that the server stays the bottleneck.  A *bounded* inbox
    (``inbox_capacity``) models a slow consumer under overload: the server
    has already spent the transmit work, so the copy still counts as
    dispatched, but the inbox evicts per ``inbox_policy`` instead of
    growing without bound.
    """

    __slots__ = (
        "subscriber_id",
        "on_message",
        "inbox",
        "inbox_capacity",
        "inbox_policy",
        "connected",
        "received_count",
        "inbox_dropped",
    )

    def __init__(
        self,
        subscriber_id: str,
        on_message: Optional[Callable[[DeliveredMessage], None]] = None,
        inbox_capacity: Optional[int] = None,
        inbox_policy: DropPolicy = DropPolicy.DROP_OLDEST,
    ):
        if not subscriber_id:
            raise SubscriptionError("subscriber id must be non-empty")
        if inbox_capacity is not None and inbox_capacity < 1:
            raise ValueError(f"inbox_capacity must be >= 1, got {inbox_capacity}")
        if inbox_policy is DropPolicy.BLOCK:
            raise ValueError("an inbox cannot BLOCK the broker; pick a drop policy")
        self.subscriber_id = subscriber_id
        self.on_message = on_message
        self.inbox: Deque[DeliveredMessage] = deque()
        self.inbox_capacity = inbox_capacity
        self.inbox_policy = inbox_policy
        self.connected = True
        self.received_count = 0
        #: Copies evicted from the bounded inbox (all policies).
        self.inbox_dropped = 0

    def deliver(self, delivery: DeliveredMessage, now: float = 0.0) -> int:
        """Called by the broker when a copy is dispatched to this subscriber.

        Returns the number of copies evicted to keep the inbox within its
        capacity (0 on an unbounded or non-full inbox).  The transmit work
        happened either way, so the caller's dispatch counters are not
        affected — only the eviction is reported.
        """
        self.received_count += 1
        evicted = 0
        if self.inbox_capacity is not None and len(self.inbox) >= self.inbox_capacity:
            evicted = 1
            self.inbox_dropped += 1
            if self.inbox_policy is DropPolicy.DROP_OLDEST:
                self.inbox.popleft()
            elif self.inbox_policy is DropPolicy.DEADLINE_SHED:
                stale = next(
                    (i for i, d in enumerate(self.inbox) if d.message.expired(now)),
                    None,
                )
                if stale is not None:
                    del self.inbox[stale]
                else:
                    # Every queued copy is still fresh: reject the arrival.
                    return evicted
            else:  # DROP_NEW: the arriving copy is the one shed.
                return evicted
        self.inbox.append(delivery)
        if self.on_message is not None:
            self.on_message(delivery)
        return evicted

    def deliver_many(self, deliveries: List[DeliveredMessage], now: float = 0.0) -> int:
        """Deliver a coalesced run of copies; returns total evictions.

        The fast path — unbounded inbox, no callback, the bench and
        measurement configuration — appends the whole slice with one
        ``deque.extend`` instead of ``len(deliveries)`` method calls.
        Bounded or callback-bearing inboxes fall back to the per-copy
        path so eviction policy and callback order are untouched.
        """
        if self.inbox_capacity is None and self.on_message is None:
            self.received_count += len(deliveries)
            self.inbox.extend(deliveries)
            return 0
        evicted = 0
        for delivery in deliveries:
            evicted += self.deliver(delivery, now=now)
        return evicted

    def receive(self) -> Optional[DeliveredMessage]:
        """Pop the oldest delivery, or ``None`` when the inbox is empty."""
        return self.inbox.popleft() if self.inbox else None

    def drain(self) -> List[DeliveredMessage]:
        """Remove and return everything in the inbox."""
        items = list(self.inbox)
        self.inbox.clear()
        return items

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"Subscriber({self.subscriber_id!r}, {state}, inbox={len(self.inbox)})"


@dataclass(slots=True)
class Subscription:
    """The binding of one subscriber to one topic through one filter."""

    subscriber: Subscriber
    topic: Topic
    filter: MessageFilter = field(default_factory=MatchAllFilter)
    durable: bool = False
    subscription_id: int = field(default_factory=lambda: next(_subscription_ids))
    #: Messages retained for a disconnected durable subscriber.
    retained: Deque[Message] = field(default_factory=deque)

    @property
    def active(self) -> bool:
        """Is the subscriber currently online?"""
        return self.subscriber.connected

    def matches(self, message: Message) -> bool:
        return self.filter.matches(message)

    def selector_analysis(self):
        """Static analysis of this subscription's selector.

        Returns a :class:`~repro.broker.selector.analysis.SelectorAnalysis`
        for property-filter subscriptions and ``None`` for others
        (match-all and correlation-ID filters have no selector text to
        analyze).  Used by the ``repro lint`` deployment audit.
        """
        from .filters import PropertyFilter

        if isinstance(self.filter, PropertyFilter):
            return self.filter.selector.analysis
        return None

    def retain(self, message: Message) -> None:
        if not self.durable:
            raise SubscriptionError("only durable subscriptions retain messages")
        self.retained.append(message)

    def replay_retained(self) -> List[Message]:
        """Hand back retained messages (on reconnect) and clear the store."""
        items = list(self.retained)
        self.retained.clear()
        return items

    def __repr__(self) -> str:
        kind = "durable" if self.durable else "non-durable"
        return (
            f"Subscription(#{self.subscription_id}, {self.subscriber.subscriber_id!r}"
            f" on {self.topic.name!r}, {kind}, {self.filter!r})"
        )
