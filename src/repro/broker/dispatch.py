"""Filter evaluation and dispatch planning.

For every received message the server checks the filter of **every**
subscription on the message's topic, one after another.  The paper verifies
that FioranoMQ gains nothing from identical filters, i.e. it performs no
filter-sharing optimization — so the evaluation here is deliberately a
plain linear scan, and the returned plan reports exactly how many
non-trivial filters were evaluated (each costs ``t_fltr`` in the CPU
model) and how many copies will be sent (each costs ``t_tx``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .message import Message
from .selector import compile_scan
from .subscriptions import Subscription

__all__ = ["DispatchPlan", "LinearScan", "plan_dispatch"]


@dataclass(slots=True)
class DispatchPlan:
    """The outcome of matching one message against a topic's subscriptions.

    Slotted and not frozen: one is built per message, warm or cold, and a
    frozen unslotted dataclass cost 0.85 µs a construction against 0.26.

    Attributes
    ----------
    message:
        The message being dispatched.
    matches:
        Subscriptions whose filter accepted the message, in subscription
        order (delivery is in-order per the persistent mode).
    filters_evaluated:
        Number of non-trivial filter evaluations performed; drives the
        ``n_fltr · t_fltr`` CPU charge.
    """

    message: Message
    matches: tuple[Subscription, ...]
    filters_evaluated: int

    @property
    def replication_grade(self) -> int:
        """``R`` — the number of copies that will be sent."""
        return len(self.matches)


class LinearScan:
    """The FioranoMQ-style planner over one fixed subscription list.

    Match-all subscriptions (no filter installed) receive the message
    without a filter evaluation; all other filters are evaluated
    unconditionally, matching the measured FioranoMQ behaviour.  The
    evaluating itself is the topic's scan kernel
    (:func:`~repro.broker.selector.compile_scan`), built here once and
    reused for every message until the subscription list changes.
    """

    __slots__ = ("subscriptions", "kernel")

    def __init__(self, subscriptions: Sequence[Subscription]):
        self.subscriptions = tuple(subscriptions)
        self.kernel = compile_scan([s.filter for s in self.subscriptions])

    def plan(self, message: Message) -> DispatchPlan:
        subscriptions = self.subscriptions
        return DispatchPlan(
            message=message,
            matches=tuple([subscriptions[i] for i in self.kernel(message)]),
            filters_evaluated=self.kernel.evaluated,
        )


def plan_dispatch(message: Message, subscriptions: Sequence[Subscription]) -> DispatchPlan:
    """Linearly evaluate every subscription's filter against ``message``."""
    return LinearScan(subscriptions).plan(message)
