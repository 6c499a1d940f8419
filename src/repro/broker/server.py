"""The broker core: topic routing, filter matching, delivery.

:class:`Broker` is a synchronous, engine-agnostic JMS-style server "brain".
It performs the real matching work — every installed filter is evaluated
against every message, copies are delivered to subscriber inboxes, durable
subscribers get retention — and reports per-message operation counts
(filters evaluated, copies sent) so a CPU cost model can charge virtual
time for them.  The simulated measurement server in
:mod:`repro.testbed.simserver` wraps it into the event engine; the
examples use it directly as an in-process pub/sub library.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

from .dispatch import DispatchPlan, LinearScan
from .dispatch_cache import VOLATILE_HEADERS, DispatchMemo, message_fingerprint
from .errors import SubscriptionError
from .filters import MatchAllFilter, MessageFilter, PropertyFilter
from .message import DeliveredMessage, DeliveryMode, Message
from .queues import DropPolicy, QueueManager, _commit_scope, _journal_api
from .stats import BrokerStats
from .subscriptions import Subscriber, Subscription
from .topics import TopicRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from ..durability.journal import Journal
    from ..durability.recovery import RecoveryReport

__all__ = [
    "BatchPublishResult",
    "Broker",
    "BrokerCrashReport",
    "PublishResult",
    "SELECTOR_POLICIES",
]

#: How the broker treats selector static-analysis findings at subscribe
#: time: ``"off"`` skips analysis, ``"warn"`` records findings in
#: :attr:`Broker.selector_findings`, ``"strict"`` rejects ill-typed
#: selectors with :class:`~repro.broker.errors.InvalidSelectorError`
#: (the ``javax.jms.InvalidSelectorException`` behaviour) and still
#: records warnings.
SELECTOR_POLICIES = ("off", "warn", "strict")


@dataclass(slots=True)
class PublishResult:
    """Outcome of one ``publish`` call.

    Carries the operation counts the CPU model needs: ``filters_evaluated``
    non-trivial filter checks and ``copies_delivered + copies_retained +
    copies_dropped`` matches (the replication grade ``R``).  Slotted and
    not frozen, like :class:`~repro.broker.dispatch.DispatchPlan`: one is
    built per publish (1.6 µs frozen and unslotted, 0.33 slotted).
    """

    message: Message
    filters_evaluated: int
    copies_delivered: int
    copies_retained: int
    copies_dropped: int
    expired: bool = False

    @property
    def replication_grade(self) -> int:
        return self.copies_delivered + self.copies_retained + self.copies_dropped


@dataclass(frozen=True)
class BatchPublishResult:
    """Outcome of one ``publish_batch`` call.

    ``results`` holds one :class:`PublishResult` per input message, in
    input order — observably the same results a sequential ``publish``
    loop would have produced.  ``groups`` is how many distinct
    ``(topic, property-shape)`` fingerprint groups the batch collapsed
    into (each group was planned at most once); ``warm_groups`` of them
    were served by a single memo probe.
    """

    results: tuple[PublishResult, ...]
    groups: int = 0
    warm_groups: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def filters_evaluated(self) -> int:
        return sum(result.filters_evaluated for result in self.results)

    @property
    def copies_delivered(self) -> int:
        return sum(result.copies_delivered for result in self.results)

    @property
    def copies_retained(self) -> int:
        return sum(result.copies_retained for result in self.results)

    @property
    def copies_dropped(self) -> int:
        return sum(result.copies_dropped for result in self.results)

    @property
    def expired(self) -> int:
        return sum(1 for result in self.results if result.expired)


@dataclass(frozen=True)
class BrokerCrashReport:
    """What the broker lost and kept across one crash (see ``crash``)."""

    subscriptions_dropped: int
    subscribers_disconnected: int
    retained_preserved: int


class Broker:
    """An in-process JMS-style publish/subscribe server.

    Example
    -------
    >>> from repro.broker import Broker, Message, PropertyFilter
    >>> broker = Broker(topics=["presence"])
    >>> alice = broker.add_subscriber("alice")
    >>> _ = broker.subscribe(alice, "presence", PropertyFilter("user = 'bob'"))
    >>> result = broker.publish(Message(topic="presence", properties={"user": "bob"}))
    >>> result.replication_grade
    1
    >>> alice.receive().message.properties["user"]
    'bob'
    """

    def __init__(
        self,
        topics: Sequence[str] = (),
        freeze_topics: bool = False,
        selector_policy: str = "off",
        inbox_capacity: Optional[int] = None,
        inbox_policy: DropPolicy = DropPolicy.DROP_OLDEST,
        journal: Optional["Journal"] = None,
    ):
        if selector_policy not in SELECTOR_POLICIES:
            raise ValueError(
                f"selector_policy must be one of {SELECTOR_POLICIES}, got {selector_policy!r}"
            )
        if inbox_capacity is not None and inbox_capacity < 1:
            raise ValueError(f"inbox_capacity must be >= 1, got {inbox_capacity}")
        if inbox_policy is DropPolicy.BLOCK:
            raise ValueError("subscriber inboxes cannot BLOCK; pick a drop policy")
        #: Default capacity for subscriber inboxes created by
        #: :meth:`add_subscriber` (``None`` = unbounded, the seed
        #: behaviour).  Evictions land in ``stats.inbox_dropped``.
        self.inbox_capacity = inbox_capacity
        self.inbox_policy = inbox_policy
        self.topics = TopicRegistry()
        for name in topics:
            self.topics.create(name)
        if freeze_topics:
            self.topics.freeze()
        self.selector_policy = selector_policy
        #: ``(subscriber_id, topic, SelectorAnalysis)`` triples recorded for
        #: selectors with findings under the "warn"/"strict" policies.
        self.selector_findings: List[tuple] = []
        self._subscriptions: Dict[str, "OrderedDict[int, Subscription]"] = {}
        self._subscribers: Dict[str, Subscriber] = {}
        self.stats = BrokerStats()
        #: Optional write-ahead journal (see :mod:`repro.durability`).
        #: When set, persistent queue messages and durable topic retention
        #: are logged ahead of the in-memory mutation; :meth:`crash` then
        #: discards in-memory persistent state and :meth:`recover` replays
        #: it from the log instead of the pre-durability emulation.
        self.journal = journal
        #: What a failed journal append raises and how an ``owed`` list
        #: names a durable subscription, bound here rather than looked
        #: up per message.
        self._write_fault: Tuple[Type[Exception], ...] = ()
        if journal is not None:
            write_fault, self._durable_key = _journal_api()
            self._write_fault = (write_fault,)
        #: Point-to-point queues owned by this broker; created queues
        #: share the broker's stats ledger and journal.
        self.queues = QueueManager(stats=self.stats, journal=journal)
        #: The :class:`~repro.durability.recovery.RecoveryReport` of the
        #: most recent journalled :meth:`recover`, or ``None``.
        self.last_recovery: Optional["RecoveryReport"] = None
        #: Topic publishes whose write-ahead append failed (retention then
        #: proceeds un-journalled, degraded but reported).
        self.journal_write_failures = 0
        #: Per-topic dispatch planners; ``None`` means the FioranoMQ-style
        #: linear scan.  Installed by :meth:`install_filter_index`.
        self._indices: Dict[str, object] = {}
        #: Per-topic linear scans, built by the first cold plan after the
        #: topic's subscription set changed (stale exactly when a memo is).
        self._scans: Dict[str, LinearScan] = {}
        self._index_canonicalize = False
        self._had_filter_index = False
        #: Per-topic dispatch-plan memos (lazily built); ``None`` maxsize
        #: means memoization is off.  Installed by
        #: :meth:`install_dispatch_memo`.
        self._memos: Dict[str, DispatchMemo] = {}
        self._memo_maxsize: Optional[int] = None

    # ------------------------------------------------------------------
    # Subscriber management
    # ------------------------------------------------------------------
    def add_subscriber(
        self,
        subscriber_id: str,
        on_message=None,
        inbox_capacity: Optional[int] = None,
        inbox_policy: Optional[DropPolicy] = None,
    ) -> Subscriber:
        """Register a consumer endpoint.

        ``inbox_capacity``/``inbox_policy`` override the broker-wide
        defaults for this subscriber (a single slow consumer can be
        bounded without bounding the rest).
        """
        if subscriber_id in self._subscribers:
            raise SubscriptionError(f"duplicate subscriber id {subscriber_id!r}")
        subscriber = Subscriber(
            subscriber_id,
            on_message=on_message,
            inbox_capacity=self.inbox_capacity if inbox_capacity is None else inbox_capacity,
            inbox_policy=self.inbox_policy if inbox_policy is None else inbox_policy,
        )
        self._subscribers[subscriber_id] = subscriber
        return subscriber

    def get_subscriber(self, subscriber_id: str) -> Subscriber:
        try:
            return self._subscribers[subscriber_id]
        except KeyError:
            raise SubscriptionError(f"unknown subscriber {subscriber_id!r}") from None

    def subscriber_ids(self) -> List[str]:
        """Ids of every registered subscriber, in registration order."""
        return list(self._subscribers)

    def subscribe(
        self,
        subscriber: Subscriber | str,
        topic_name: str,
        message_filter: Optional[MessageFilter] = None,
        durable: bool = False,
    ) -> Subscription:
        """Install a subscription (and its single filter) on a topic.

        Filters are dynamic: unlike topics they may be installed while the
        server runs.  Under the "warn"/"strict" selector policies, property
        selectors go through the static analyzer first: strict mode rejects
        ill-typed ones with :class:`InvalidSelectorError` (span diagnostics
        in the reason) and both modes record dead/trivial-filter warnings
        in :attr:`selector_findings`.
        """
        if isinstance(subscriber, str):
            subscriber = self.get_subscriber(subscriber)
        elif subscriber.subscriber_id not in self._subscribers:
            raise SubscriptionError(
                f"subscriber {subscriber.subscriber_id!r} is not registered"
            )
        topic = self.topics.get(topic_name)
        if self.selector_policy != "off" and isinstance(message_filter, PropertyFilter):
            from .selector.analysis import check_selector

            analysis = check_selector(
                message_filter.selector.analysis, strict=self.selector_policy == "strict"
            )
            if analysis.diagnostics:
                self.selector_findings.append(
                    (subscriber.subscriber_id, topic.name, analysis)
                )
        subscription = Subscription(
            subscriber=subscriber,
            topic=topic,
            filter=message_filter if message_filter is not None else MatchAllFilter(),
            durable=durable,
        )
        bucket = self._subscriptions.setdefault(topic.name, OrderedDict())
        bucket[subscription.subscription_id] = subscription
        self._on_subscriptions_changed(topic.name, subscription, added=True)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        bucket = self._subscriptions.get(subscription.topic.name, {})
        if subscription.subscription_id not in bucket:
            raise SubscriptionError(f"subscription {subscription.subscription_id} not installed")
        del bucket[subscription.subscription_id]
        self._on_subscriptions_changed(subscription.topic.name, subscription, added=False)

    def _on_subscriptions_changed(
        self, topic_name: str, subscription: Subscription, *, added: bool
    ) -> None:
        """Keep the derived dispatch structures consistent with the
        subscription set: the topic's memoized plans and its scan are
        stale, and an installed filter index is updated incrementally."""
        self._memos.pop(topic_name, None)
        self._scans.pop(topic_name, None)
        if not self._indices:
            return
        index = self._indices.get(topic_name)
        if added:
            if index is None:
                # Index mode is on but this topic appeared after the
                # install — give it an index of its own.
                from .filter_index import FilterIndex

                index = self._indices[topic_name] = FilterIndex(
                    (), canonicalize=self._index_canonicalize
                )
            index.add(subscription)  # type: ignore[attr-defined]
        elif index is not None:
            index.remove(subscription)  # type: ignore[attr-defined]

    def subscriptions(self, topic_name: str) -> List[Subscription]:
        """The topic's subscriptions in installation order."""
        return list(self._subscriptions.get(topic_name, {}).values())

    def filter_count(self, topic_name: str) -> int:
        """Number of non-trivial filters installed on a topic (``n_fltr``)."""
        return sum(
            1
            for s in self._subscriptions.get(topic_name, {}).values()
            if not s.filter.is_trivial
        )

    # ------------------------------------------------------------------
    # Connection lifecycle (durable vs. non-durable semantics)
    # ------------------------------------------------------------------
    def disconnect(self, subscriber: Subscriber | str) -> None:
        """Take a subscriber offline; durable subscriptions start retaining."""
        if isinstance(subscriber, str):
            subscriber = self.get_subscriber(subscriber)
        subscriber.connected = False

    def record_journal_write_failure(self) -> None:
        """A topic-side journal append failed (publish, replay or recovery)."""
        self.journal_write_failures += 1

    def reconnect(self, subscriber: Subscriber | str) -> int:
        """Bring a subscriber back online, replaying retained messages.

        Returns the number of replayed (durable) messages.
        """
        if isinstance(subscriber, str):
            subscriber = self.get_subscriber(subscriber)
        subscriber.connected = True
        replayed = 0
        for bucket in self._subscriptions.values():
            for subscription in bucket.values():
                if subscription.subscriber is subscriber and subscription.durable:
                    for message in subscription.replay_retained():
                        subscriber.deliver(DeliveredMessage(message, subscriber.subscriber_id))
                        self.stats.record("dispatched")
                        replayed += 1
                        if (
                            self.journal is not None
                            and message.delivery_mode is DeliveryMode.PERSISTENT
                        ):
                            try:
                                self.journal.log_deliver(
                                    "topic",
                                    subscription.topic.name,
                                    message.message_id,
                                    self._durable_key(
                                        subscriber.subscriber_id,
                                        subscription.topic.name,
                                    ),
                                )
                            except self._write_fault:
                                self.record_journal_write_failure()
        return replayed

    # ------------------------------------------------------------------
    # Crash / recovery (fault model, see repro.faults)
    # ------------------------------------------------------------------
    def crash(self, now: float = 0.0) -> BrokerCrashReport:
        """Apply server-crash semantics to the broker state.

        Non-durable subscriptions die with the server (JMS: they exist
        only for the life of the connection); durable subscriptions and
        their retained backlogs survive the restart.  Every subscriber's
        connection is severed — durable ones start retaining until their
        client reconnects.  Any installed filter index is invalidated and
        rebuilt on :meth:`recover`.  The broker's queues crash too (see
        :meth:`PointToPointQueue.crash`).

        On a journalled broker the retained in-memory backlogs are
        *discarded* — memory died with the process; ``retained_preserved``
        then counts the copies the journal owes the replay instead of
        copies surviving in RAM.
        """
        self.stats.record("crashes")
        dropped = 0
        for bucket in self._subscriptions.values():
            for subscription_id in list(bucket):
                if not bucket[subscription_id].durable:
                    del bucket[subscription_id]
                    dropped += 1
        disconnected = 0
        for subscriber in self._subscribers.values():
            if subscriber.connected:
                subscriber.connected = False
                disconnected += 1
        retained = sum(
            len(subscription.retained)
            for bucket in self._subscriptions.values()
            for subscription in bucket.values()
        )
        if self.journal is not None:
            # In-memory retention dies with the process; replay repays it.
            for bucket in self._subscriptions.values():
                for subscription in bucket.values():
                    subscription.retained.clear()
        self.queues.crash_all(now)
        self._had_filter_index = self.uses_filter_index
        self._indices = {}
        self._memos = {}
        self._scans = {}
        return BrokerCrashReport(
            subscriptions_dropped=dropped,
            subscribers_disconnected=disconnected,
            retained_preserved=retained,
        )

    def recover(self, reconnect_subscribers: bool = True, now: float = 0.0) -> int:
        """Bring the broker back up after :meth:`crash`.

        On a journalled broker this first replays the write-ahead log —
        repairing torn tails, quarantining corruption, requeueing
        committed queue messages and re-retaining owed topic copies; the
        structured outcome lands in :attr:`last_recovery` and **nothing**
        from the replay raises out of this method.  Then every subscriber
        is reconnected (replaying durable retained messages) unless
        ``reconnect_subscribers`` is False, and the filter index is
        rebuilt when one was installed before the crash.  Returns the
        number of replayed (topic-retained) messages.
        """
        if self.journal is not None:
            from ..durability.recovery import recover_broker

            self.last_recovery = recover_broker(self, self.journal, now=now)
        replayed = 0
        if reconnect_subscribers:
            for subscriber_id in list(self._subscribers):
                replayed += self.reconnect(subscriber_id)
        if self._had_filter_index:
            self.install_filter_index(canonicalize=self._index_canonicalize)
            self._had_filter_index = False
        return replayed

    # ------------------------------------------------------------------
    # Publishing: the paper's receive → filter → transmit pipeline as
    # stages (admit → plan → write-ahead → deliver run → account).
    # ``publish`` and ``publish_batch`` are thin drivers over the same
    # stage functions, so every ingress rule exists once.
    # ------------------------------------------------------------------
    def _admit(self, message: Message, now: float) -> Optional[PublishResult]:
        """Admit stage: the topic must exist
        (:class:`~repro.broker.errors.InvalidDestinationError` otherwise)
        and the receive work is counted.  An expired message is counted
        and not dispatched — its finished result is returned; ``None``
        means the message goes on to the plan stage."""
        self.topics.get(message.topic)
        self.stats.record_receive(message.topic)
        if message.expired(now):
            self.stats.record("expired")
            return PublishResult(message, 0, 0, 0, 0, expired=True)
        return None

    def _write_ahead(
        self, message: Message, matches: Tuple[Subscription, ...], now: float
    ) -> None:
        """Write-ahead stage: a persistent message about to be *retained*
        for offline durable subscribers must hit the journal before any
        in-memory retention, or a crash in between loses it.  The
        ``owed`` list names the subscriptions a replay must repay.  A
        failed append is counted and retention proceeds un-journalled."""
        if self.journal is not None and message.delivery_mode is DeliveryMode.PERSISTENT:
            owed = [
                self._durable_key(s.subscriber.subscriber_id, message.topic)
                for s in matches
                if not s.active and s.durable
            ]
            if owed:
                try:
                    self.journal.log_publish(
                        "topic", message.topic, message, owed=owed, now=now
                    )
                except self._write_fault:
                    self.record_journal_write_failure()

    def _deliver_run(
        self, run: Sequence[Message], matches: Tuple[Subscription, ...], now: float
    ) -> Tuple[int, int, int]:
        """Deliver stage: hand a run of messages sharing one match-set to
        each matched subscription — an online subscriber's inbox takes
        the whole run as one slice (:meth:`Subscriber.deliver_many`), an
        offline durable subscription retains it, an offline non-durable
        one drops it.  Returns the per-message ``(delivered, retained,
        dropped)`` copy counts, uniform across the run."""
        delivered = retained = dropped = 0
        for subscription in matches:
            if subscription.active:
                subscriber = subscription.subscriber
                if len(run) == 1:  # no slice to coalesce: skip the list and the loop
                    evicted = subscriber.deliver(run[0].copy_for(subscriber.subscriber_id), now=now)
                else:
                    evicted = subscriber.deliver_many(
                        [m.copy_for(subscriber.subscriber_id) for m in run], now=now
                    )
                self.stats.record_delivery_outcome(inbox_dropped=evicted)
                delivered += 1
            elif subscription.durable:
                for message in run:
                    subscription.retain(message)
                retained += 1
                self.stats.record_delivery_outcome(retained=len(run))
            else:
                dropped += 1
                self.stats.record_delivery_outcome(dropped_offline=len(run))
        return delivered, retained, dropped

    def _account(
        self, message: Message, bill: int, delivered: int, retained: int, dropped: int
    ) -> PublishResult:
        """Account stage: book one dispatched message and build its result."""
        self.stats.record_dispatch(
            message.topic, copies=delivered + retained, filters_evaluated=bill
        )
        return PublishResult(message, bill, delivered, retained, dropped)

    def publish(self, message: Message, now: float = 0.0) -> PublishResult:
        """Route one message: the pipeline stages on a run of one, planned
        by :meth:`_plan` (no fingerprint grouping — a lone message has
        nothing to share a plan with)."""
        expired = self._admit(message, now)
        if expired is not None:
            return expired
        plan = self._plan(message)
        self._write_ahead(message, plan.matches, now)
        delivered, retained, dropped = self._deliver_run((message,), plan.matches, now)
        return self._account(message, plan.filters_evaluated, delivered, retained, dropped)

    def _plan_groups(
        self, messages: Sequence[Message], live: Sequence[int]
    ) -> Tuple[Dict[int, Tuple[Subscription, ...]], Dict[int, int], int, int]:
        """Grouping + plan stage of a batch: group the ``live`` positions
        by ``(topic, property-shape)`` fingerprint and plan every group
        *once* — one memo probe, or one cold plan of the group's first
        message through the same :meth:`_plan_cold` a scalar publish
        uses.  A cold group of ``n`` bills ``filters_evaluated`` once, on
        its first message; a warm one bills a single probe
        (``stats.batch_hits`` / ``stats.batch_messages``).  Returns the
        match-set and the filter bill per position, the group count and
        how many groups were warm."""
        use_memo = self._memo_maxsize is not None
        header_fields: Dict[str, tuple] = {}
        groups: Dict[object, List[int]] = {}
        for index in live:
            message = messages[index]
            topic_name = message.topic
            fields = header_fields.get(topic_name)
            if fields is None:
                if use_memo:
                    fields = self._memo_for(topic_name).header_fields
                else:
                    fields = self._referenced_headers(topic_name)
                header_fields[topic_name] = fields
            groups.setdefault(message_fingerprint(message, fields), []).append(index)

        # Memo probes first, then the cold plans (a store may evict what
        # a later probe of the same batch would have hit).
        matches_by: Dict[int, Tuple[Subscription, ...]] = {}
        bills = dict.fromkeys(live, 0)
        # The cold groups stay keyed in a dict, like ``groups``: carrying
        # their keys in a list (as pairs, or in a list beside the members)
        # read 5 % slower on *every* lifecycle of the mesh benchmark, its
        # queue batches included — bisected there, not explained.
        cold: Dict[object, List[int]] = {}
        for key, members in groups.items():
            representative = messages[members[0]]
            plan = None
            if use_memo:
                # The grouping key is the memo's key: same header fields.
                plan = self._memo_for(representative.topic).lookup(representative, key)
            if plan is None:
                cold[key] = members
                continue
            if len(members) > 1:
                self.stats.record_batch_hit(len(members))
            for index in members:
                matches_by[index] = plan.matches
        for key, members in cold.items():
            plan = self._plan_cold(messages[members[0]])
            if use_memo:
                self._memo_for(plan.message.topic).store(key, plan)
            for index in members:
                matches_by[index] = plan.matches
            # The evaluation happened once, for the representative:
            # the group's first message carries the whole bill.
            bills[members[0]] = plan.filters_evaluated
        return matches_by, bills, len(groups), len(groups) - len(cold)

    def publish_batch(
        self, messages: Sequence[Message], now: float = 0.0
    ) -> BatchPublishResult:
        """Route a batch through the same stages as :meth:`publish`.

        Observably equivalent to a ``publish`` loop — same per-inbox
        delivery order, same retention, same ledger legs — at any batch
        size, one included.  What a batch adds is a grouping stage in
        front of the plan (:meth:`_plan_groups`: one plan per
        fingerprint group) and the order the stages run in: every
        message is admitted, then the write-ahead stage runs as one
        journal commit (:meth:`Journal.commit`: the batch's PUBLISH
        records are one run — one disk write and one fsync decision —
        on disk before anything is retained; a record a write fault
        tears is counted as a failed scalar write-ahead is), then
        delivery walks the batch in input order, handing each contiguous
        same-plan run to :meth:`_deliver_run` — contiguity, not grouping,
        so interleaved shapes never reorder any subscriber's inbox.
        """
        results = [self._admit(message, now) for message in messages]
        live = [index for index, result in enumerate(results) if result is None]
        matches_by, bills, groups, warm_groups = self._plan_groups(messages, live)
        with _commit_scope(self.journal, now) as write_ahead:
            for index in live:
                self._write_ahead(messages[index], matches_by[index], now)
        for _ in write_ahead.torn:  # counted; retention proceeds un-journalled
            self.record_journal_write_failure()
        cursor = 0
        while cursor < len(live):
            start = cursor
            shared = matches_by[live[cursor]]
            cursor += 1
            while cursor < len(live) and matches_by[live[cursor]] is shared:
                cursor += 1
            run = live[start:cursor]
            counts = self._deliver_run([messages[index] for index in run], shared, now)
            for index in run:
                results[index] = self._account(messages[index], bills[index], *counts)
        final = tuple(result for result in results if result is not None)
        assert len(final) == len(messages)  # every message got a result
        return BatchPublishResult(results=final, groups=groups, warm_groups=warm_groups)

    def dry_run(self, message: Message) -> DispatchPlan:
        """Match without delivering (used by tests and what-if tools)."""
        self.topics.get(message.topic)
        return self._plan(message)

    def _plan(self, message: Message) -> DispatchPlan:
        if self._memo_maxsize is None:
            return self._plan_cold(message)
        memo = self._memo_for(message.topic)
        # Fingerprinted once: the key of the failed lookup is the store's.
        key = message_fingerprint(message, memo.header_fields)
        plan = memo.lookup(message, key)
        if plan is None:
            plan = self._plan_cold(message)
            memo.store(key, plan)
        return plan

    def _memo_for(self, topic_name: str) -> DispatchMemo:
        """The topic's memo, lazily built (memoization must be on)."""
        memo = self._memos.get(topic_name)
        if memo is None:
            assert self._memo_maxsize is not None
            memo = self._memos[topic_name] = DispatchMemo(
                self._memo_maxsize,
                header_fields=self._referenced_headers(topic_name),
            )
        return memo

    def _plan_cold(self, message: Message) -> DispatchPlan:
        """Evaluate the topic's filters: through its index if one is
        installed, else through its linear scan (built on first use)."""
        topic_name = message.topic
        index = self._indices.get(topic_name)
        if index is not None:
            return index.plan(message)  # type: ignore[attr-defined]
        scan = self._scans.get(topic_name)
        if scan is None:
            scan = self._scans[topic_name] = LinearScan(self.subscriptions(topic_name))
        return scan.plan(message)

    def _referenced_headers(self, topic_name: str) -> tuple:
        """Volatile headers the topic's selectors can observe — these must
        join the memo fingerprint or a cached plan could be served to a
        message that differs only in, say, ``JMSPriority``."""
        fields = set()
        for subscription in self._subscriptions.get(topic_name, {}).values():
            filter_ = subscription.filter
            if isinstance(filter_, PropertyFilter):
                fields.update(filter_.selector.identifiers & VOLATILE_HEADERS)
        return tuple(sorted(fields))

    # ------------------------------------------------------------------
    # Ablation: shared filter evaluation (what FioranoMQ does NOT do)
    # ------------------------------------------------------------------
    def install_filter_index(self, canonicalize: bool = False) -> None:
        """Switch every topic to shared/indexed filter evaluation.

        The measured FioranoMQ behaviour is the per-subscription linear
        scan; installing the index models a server with identical-filter
        sharing and an exact correlation-ID hash index (the [15]-style
        optimization).  With ``canonicalize=True`` the index additionally
        shares evaluation across semantically equivalent property
        selectors (canonical normal form) and prunes statically dead or
        trivial ones.  Rebuild after subscription changes by calling this
        again.
        """
        from .filter_index import FilterIndex

        self._index_canonicalize = canonicalize
        self._indices = {
            topic.name: FilterIndex(
                self.subscriptions(topic.name), canonicalize=canonicalize
            )
            for topic in self.topics
        }
        self._memos = {}
        self._scans = {}

    def remove_filter_index(self) -> None:
        """Return to the FioranoMQ-style linear scan."""
        self._indices = {}
        self._memos = {}
        self._scans = {}

    @property
    def uses_filter_index(self) -> bool:
        return bool(self._indices)

    # ------------------------------------------------------------------
    # Dispatch-plan memoization (hot-path cache, see dispatch_cache)
    # ------------------------------------------------------------------
    def install_dispatch_memo(self, maxsize: int = 1024) -> None:
        """Cache dispatch match-sets per message fingerprint.

        Repeated publishes of equal-shaped messages (same topic,
        correlation ID, properties, and any selector-referenced headers)
        skip filter evaluation entirely: the plan comes from a bounded
        per-topic LRU and bills ``filters_evaluated=0``.  The memo
        layers on top of whichever planner is active (linear scan or
        filter index) and is invalidated automatically whenever the
        subscription set or the planning mode changes.
        """
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be >= 1, got {maxsize}")
        self._memo_maxsize = maxsize
        self._memos = {}

    def remove_dispatch_memo(self) -> None:
        """Plan every message from scratch again."""
        self._memo_maxsize = None
        self._memos = {}

    @property
    def uses_dispatch_memo(self) -> bool:
        return self._memo_maxsize is not None

    def dispatch_memo(self, topic_name: str) -> Optional[DispatchMemo]:
        """The topic's memo, if memoization is on and the topic has seen
        traffic since the last invalidation (memos build lazily)."""
        return self._memos.get(topic_name)
