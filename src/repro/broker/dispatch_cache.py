"""Dispatch-plan memoization: skip filter evaluation for repeated shapes.

Workloads like the paper's measurement runs publish long streams of
messages that differ only in payload — topic, correlation ID and the
property section (everything a filter can see) repeat.  The broker's
dispatch decision is a pure function of those fields and of the topic's
subscription set, so it can be memoized: fingerprint the message, cache
the match-set in a bounded LRU, and serve repeats with one hash lookup
instead of ``n_fltr`` selector evaluations.

Correctness hinges on the fingerprint covering *everything the filters
can observe*:

- topic and ``JMSCorrelationID`` are always part of the key;
- application properties enter as ``(name, type, value)`` triples —
  the type is required because Python hashes ``True`` and ``1``
  identically while SQL-92 comparison semantics distinguish booleans
  from numbers;
- any *other* JMS header a selector on the topic actually references
  (``JMSPriority``, ``JMSTimestamp``, …) is appended via
  ``header_fields``, computed by the broker from the installed
  selectors' identifier sets.

Cache entries are invalidated by the broker whenever the subscription
set changes (subscribe/unsubscribe/crash) or the planning mode changes
(filter-index install/remove) — see
:meth:`repro.broker.server.Broker.install_dispatch_memo`.

A memo **hit** reports ``filters_evaluated=0``: no filter ran, and the
virtual CPU bill (``n_fltr · t_fltr`` in Eq. 1) charges only work that
actually happened.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from .dispatch import DispatchPlan
from .message import Message
from .subscriptions import Subscription

__all__ = ["DispatchMemo", "VOLATILE_HEADERS", "message_fingerprint"]

#: Headers a selector may reference that are NOT already part of the
#: fingerprint key (topic covers ``JMSDestination``; the correlation ID
#: has its own key slot).  The broker includes the subset its installed
#: selectors mention via ``header_fields``.
VOLATILE_HEADERS = frozenset(
    {
        "JMSMessageID",
        "JMSPriority",
        "JMSTimestamp",
        "JMSDeliveryMode",
        "JMSRedelivered",
    }
)


def message_fingerprint(message: Message, header_fields: Tuple[str, ...] = ()) -> object:
    """Everything a topic's filters can observe, as a hashable key.

    Module-level so the batched publish path can group a message batch by
    ``(topic, property-shape)`` even when no memo is installed: messages
    sharing a fingerprint provably share a match-set, so one plan serves
    the whole group.  Property names are unique, so sorting the triples
    never compares the (unorderable) type or value slots.
    """
    props = tuple(
        sorted((name, value.__class__, value) for name, value in message.properties.items())
    )
    if header_fields:
        headers = tuple(message.header(name) for name in header_fields)
        return (message.topic, message.correlation_id, props, headers)
    return (message.topic, message.correlation_id, props)


class DispatchMemo:
    """A bounded LRU of dispatch match-sets for one topic configuration.

    ``maxsize`` bounds memory; least-recently-used fingerprints are
    evicted first.  ``header_fields`` lists the volatile headers the
    topic's selectors reference (usually empty — property selectors
    rarely inspect headers).
    """

    __slots__ = ("maxsize", "header_fields", "hits", "misses", "evictions", "_cache")

    def __init__(self, maxsize: int = 1024, header_fields: Tuple[str, ...] = ()):
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.header_fields = tuple(header_fields)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._cache: "OrderedDict[object, Tuple[Subscription, ...]]" = OrderedDict()

    def fingerprint(self, message: Message) -> object:
        """Everything the topic's filters can observe, as a hashable key."""
        return message_fingerprint(message, self.header_fields)

    def lookup(self, message: Message, key: object) -> Optional[DispatchPlan]:
        """A warm plan for ``message``, or None on a miss.

        ``key`` is the message's :meth:`fingerprint`, taken by the caller
        so that a miss can hand the same key to :meth:`store` (a
        fingerprint costs as much as a warm plan's other work together).
        The returned plan carries the *new* message object and a zero
        filter bill — the match-set is the only thing reused.
        """
        cache = self._cache
        matches = cache.get(key)
        if matches is None:
            self.misses += 1
            return None
        cache.move_to_end(key)
        self.hits += 1
        return DispatchPlan(message=message, matches=matches, filters_evaluated=0)

    def store(self, key: object, plan: DispatchPlan) -> None:
        """Remember a cold plan's match-set under the fingerprint ``key``
        of its message (the one the failed :meth:`lookup` was given)."""
        cache = self._cache
        cache[key] = plan.matches
        cache.move_to_end(key)
        if len(cache) > self.maxsize:
            cache.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DispatchMemo(size={len(self._cache)}/{self.maxsize},"
            f" hits={self.hits}, misses={self.misses})"
        )
