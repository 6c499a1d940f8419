"""Point-to-point queues — the other JMS messaging domain.

The paper studies the publish/subscribe domain; JMS also defines *queues*
with competing consumers: each message is delivered to exactly one
consumer.  This extension completes the broker as a JMS-style system and
lets the testbed model worker pools.

Semantics implemented:

- FIFO per queue, persistent by default;
- competing consumers with round-robin dispatch among the consumers
  whose selector matches (a consumer's selector may reject a message);
- messages with no eligible consumer wait in the queue until one
  subscribes (or the message expires — expiry is checked both at ``send``
  and when the backlog drains, so a message never outlives its TTL);
- acknowledgement: a consumer must ``ack`` a delivery; un-acked messages
  are redelivered (marked ``redelivered``) when the consumer detaches;
- poison-message handling: a message that exhausts ``max_redeliveries``
  moves to the queue's dead-letter store instead of cycling forever;
- crash recovery: :meth:`PointToPointQueue.crash` loses non-persistent
  messages and requeues persistent ones with the redelivered flag set,
  the FioranoMQ journal-replay behaviour.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING, Any, Callable, ContextManager, Deque, Dict, List, Optional, Sequence, Set,
    Tuple, Type,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from ..durability.journal import Journal

from .errors import InvalidDestinationError, SubscriptionError
from .filters import MatchAllFilter, MessageFilter
from .ledger import FATE_TABLE, Ledger
from .message import DeliveryMode, Message
from .stats import BrokerStats

__all__ = [
    "DropPolicy",
    "QueueConsumer",
    "QueueDelivery",
    "QueueCrashReport",
    "PointToPointQueue",
    "QueueManager",
]


class DropPolicy(enum.Enum):
    """What a bounded buffer does when it is full (see ``repro.overload``).

    - ``BLOCK``: push back on the producer until space frees up — the
      FioranoMQ behaviour the paper measured ("we did not observe any
      message loss due to buffer overflow").  Only meaningful where a
      producer *can* block (the server ingress via
      :class:`~repro.broker.flow_control.FlowController`).
    - ``DROP_NEW``: reject the arriving message (tail drop).  This is the
      discipline of the M/G/1/K loss model in :mod:`repro.overload.mg1k`.
    - ``DROP_OLDEST``: evict the head of the queue to admit the arrival
      (ring-buffer semantics; freshest data wins, right for telemetry).
    - ``DEADLINE_SHED``: evict a queued message whose TTL/deadline can no
      longer be met given the current backlog estimate; fall back to
      ``DROP_NEW`` when every queued message is still servable.
    """

    BLOCK = "block"
    DROP_NEW = "drop-new"
    DROP_OLDEST = "drop-oldest"
    DEADLINE_SHED = "deadline-shed"

_consumer_ids = itertools.count(1)


@functools.lru_cache(maxsize=None)
def _journal_api() -> Tuple[Type[Exception], Callable[[str, str], str]]:
    """``(JournalWriteError, durable_key)``, imported on first use and
    remembered.  :mod:`repro.durability` imports this package, so a
    module-level import would be a cycle — and an ``import`` statement
    per journalled queue, let alone per append, is measurable."""
    from ..durability.journal import JournalWriteError, durable_key

    return JournalWriteError, durable_key


#: The commit scope of a batch stage where there is no journal: nothing
#: is held, nothing can tear.
_NO_JOURNAL: ContextManager[Any] = nullcontext(SimpleNamespace(torn=()))


def _commit_scope(journal: Optional["Journal"], now: float) -> ContextManager[Any]:
    """``journal.commit(now)``: what a batch stage journals inside it is
    one run — one write, one fsync decision — whose torn records the
    scope names once it has closed (``scope.torn``)."""
    return journal.commit(now) if journal is not None else _NO_JOURNAL


@dataclass(frozen=True, slots=True)
class QueueDelivery:
    """One message handed to one consumer, awaiting acknowledgement."""

    message: Message
    consumer_id: int
    redelivered: bool = False


@dataclass(frozen=True)
class QueueCrashReport:
    """What one queue lost and recovered when the server crashed."""

    queue: str
    recovered: int
    lost: int
    dead_lettered: int


class QueueConsumer:
    """A competing consumer attached to a queue."""

    def __init__(self, name: str, selector: Optional[MessageFilter] = None):
        if not name:
            raise SubscriptionError("consumer name must be non-empty")
        self.name = name
        self.selector: MessageFilter = selector if selector is not None else MatchAllFilter()
        self.consumer_id = next(_consumer_ids)
        self.inbox: Deque[QueueDelivery] = deque()
        #: Deliveries handed out but not yet acknowledged.
        self.unacked: Dict[int, QueueDelivery] = {}
        self.attached = False
        #: The queue this consumer is attached to (set by ``attach``).
        self.queue: Optional["PointToPointQueue"] = None

    def receive(self) -> Optional[QueueDelivery]:
        """Take the next delivery (it stays unacked until ``ack``)."""
        if not self.inbox:
            return None
        delivery = self.inbox.popleft()
        self.unacked[delivery.message.message_id] = delivery
        return delivery

    def ack(self, delivery: QueueDelivery) -> None:
        """Acknowledge a delivery, completing it."""
        if delivery.message.message_id not in self.unacked:
            raise SubscriptionError(
                f"consumer {self.name!r} has no unacked message "
                f"{delivery.message.message_id}"
            )
        del self.unacked[delivery.message.message_id]
        if self.queue is not None:
            self.queue._on_ack(delivery.message.message_id)


class PointToPointQueue:
    """A FIFO queue with competing, selector-aware consumers.

    Parameters
    ----------
    name:
        Destination name.
    max_redeliveries:
        How many times a message may *return* to the backlog after a
        failed delivery (consumer detach, crash) before it is moved to
        :attr:`dead_letters`.  ``None`` (the default) never dead-letters,
        preserving the pre-fault-model behaviour.
    capacity:
        Maximum backlog length; ``None`` (the default) keeps the queue
        unbounded.  When a ``send`` would leave the backlog over capacity
        the ``drop_policy`` decides which message is shed.
    drop_policy:
        Overflow discipline for a bounded queue.  :attr:`DropPolicy.BLOCK`
        is rejected here — a synchronous ``send`` has nothing to block on;
        bound the producer with a
        :class:`~repro.broker.flow_control.FlowController` instead.
    drain_rate:
        Estimated consumer drain rate (messages/second) used by
        ``DEADLINE_SHED`` to predict whether a queued message's TTL can
        still be met.  ``None`` sheds only messages that are already
        expired or past their deadline.
    stats:
        Optional broker-wide :class:`~repro.broker.stats.BrokerStats`
        totals; when given, the queue's :attr:`ledger` mirrors drain-time
        expiry, dead-lettering and drops there so overload shedding
        stays attributable at the broker level.
    journal:
        Optional :class:`~repro.durability.journal.Journal`.  When set,
        every state transition of a *persistent* message is written ahead
        to stable storage: ``send`` journals a PUBLISH before the message
        enters the backlog (a send whose journal append fails is rejected
        fail-fast, the ``JMSException`` contract), deliveries/acks/expiry
        journal their records, and :meth:`crash` discards in-memory state
        instead of emulating recovery — replay happens for real from the
        log (see :mod:`repro.durability.recovery`).  Without a journal the
        pre-durability in-memory emulation is preserved exactly.
    """

    def __init__(
        self,
        name: str,
        max_redeliveries: Optional[int] = None,
        capacity: Optional[int] = None,
        drop_policy: DropPolicy = DropPolicy.DROP_NEW,
        drain_rate: Optional[float] = None,
        stats: Optional[BrokerStats] = None,
        journal: Optional["Journal"] = None,
    ):
        if not name or not name.strip():
            raise InvalidDestinationError("queue name must be non-empty")
        if max_redeliveries is not None and max_redeliveries < 0:
            raise ValueError(f"max_redeliveries must be >= 0, got {max_redeliveries}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if drop_policy is DropPolicy.BLOCK:
            raise ValueError(
                "BLOCK is not a queue drop policy; bound the producer with a "
                "FlowController instead"
            )
        if drain_rate is not None and drain_rate <= 0:
            raise ValueError(f"drain_rate must be positive, got {drain_rate}")
        self.name = name
        self.max_redeliveries = max_redeliveries
        self.capacity = capacity
        self.drop_policy = drop_policy
        self.drain_rate = drain_rate
        self.stats = stats
        self.journal = journal
        #: What a failed journal append raises (nothing to catch without
        #: a journal), bound here rather than looked up per append.
        self._write_fault: Tuple[Type[Exception], ...] = (
            (_journal_api()[0],) if journal is not None else ()
        )
        #: Message ids whose PUBLISH reached the journal and that have not
        #: yet been journalled terminal (ack/expire/drop) — the set of
        #: messages later records must be written for.
        self._journaled: Set[int] = set()
        #: (message, is_redelivery) pairs awaiting an eligible consumer.
        self._backlog: Deque[tuple[Message, bool]] = deque()
        self._consumers: List[QueueConsumer] = []
        self._next_consumer = 0
        #: Redelivery count per in-flight/backlog message id.
        self._redeliveries: Dict[int, int] = {}
        #: Poison messages that exhausted their redelivery budget.
        self.dead_letters: Deque[Message] = deque()
        #: Every counter of this queue (see :mod:`repro.broker.ledger`);
        #: each also reads as ``queue.<counter>``.
        self.ledger = Ledger(stats)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._backlog)

    @property
    def consumers(self) -> List[QueueConsumer]:
        return list(self._consumers)

    def closed_ledger(self) -> Ledger:
        """A copy of :attr:`ledger` closed with the two in-system gauges
        (backlog depth; inbox + unacked of attached consumers) — the form
        ``conserved`` / ``assert_conserved`` hold on."""
        return self.ledger.closed(
            depth=len(self._backlog),
            in_flight=sum(len(c.inbox) + len(c.unacked) for c in self._consumers),
        )

    def attach(self, consumer: QueueConsumer, now: float = 0.0) -> None:
        """Add a competing consumer and drain any waiting backlog to it."""
        if consumer.attached:
            raise SubscriptionError(f"consumer {consumer.name!r} already attached")
        consumer.attached = True
        consumer.queue = self
        self._consumers.append(consumer)
        self._drain(now)

    def detach(self, consumer: QueueConsumer, now: float = 0.0) -> int:
        """Remove a consumer; its unacked messages return for redelivery.

        Returns the number of messages recovered (requeued or
        dead-lettered).
        """
        if consumer not in self._consumers:
            raise SubscriptionError(f"consumer {consumer.name!r} not attached")
        self._consumers.remove(consumer)
        consumer.attached = False
        consumer.queue = None
        recovered = list(consumer.unacked.values()) + list(consumer.inbox)
        consumer.unacked.clear()
        consumer.inbox.clear()
        # Recovered messages go to the front, oldest first, flagged.
        for delivery in sorted(recovered, key=lambda d: d.message.message_id, reverse=True):
            self._requeue(delivery.message, now=now)
        self._next_consumer = 0
        self._drain(now)
        return len(recovered)

    # ------------------------------------------------------------------
    def _journal_terminal(self, message_id: int, reason: str, now: float = 0.0) -> None:
        """Journal the terminal fate of a persistent message, if tracked
        (a write fault is absorbed and counted)."""
        if self.journal is not None and message_id in self._journaled:
            self._journaled.discard(message_id)
            try:
                if reason == "expired":
                    self.journal.log_expire("queue", self.name, message_id, now=now)
                else:
                    self.journal.log_ack(
                        "queue", self.name, message_id, reason=reason, now=now
                    )
            except self._write_fault:
                self.ledger.record("journal_write_failures")

    # ------------------------------------------------------------------
    # Ingress stages: ``send`` and ``send_batch`` are thin drivers over
    # ``_accept`` then ``_enqueue``; every ingress rule lives in one stage.
    # ------------------------------------------------------------------
    def _write_ahead(self, message: Message, now: float) -> bool:
        """Journal a persistent message's PUBLISH *before* it becomes
        visible; False when the append failed — the message was never
        committed and queue state is untouched (the fail-fast
        ``JMSException`` contract)."""
        if self.journal is not None and message.delivery_mode is DeliveryMode.PERSISTENT:
            try:
                self.journal.log_publish("queue", self.name, message, now=now)
            except self._write_fault:
                self.ledger.record("journal_write_failures")
                return False
            self._journaled.add(message.message_id)
        return True

    def _accept(self, message: Message, now: float) -> bool:
        """Accept stage: send-time expiry, then the write-ahead."""
        if message.expired(now):
            self.ledger.record("expired")
            return False
        return self._write_ahead(message, now)

    def _enforce_capacity(self, now: float) -> None:
        """Shed per :attr:`drop_policy` until the backlog fits."""
        while self.capacity is not None and len(self._backlog) > self.capacity:
            self._shed_overflow(now)

    def _enqueue(self, message: Message, now: float) -> None:
        """Enqueue stage: append, drain, then enforce capacity — the drop
        policy runs *after* the drain pass, so a message an attached
        consumer can take immediately is never shed."""
        self.ledger.record("enqueued")
        self._backlog.append((message, False))
        self._drain(now)
        self._enforce_capacity(now)

    def send(self, message: Message, now: float = 0.0) -> bool:
        """Enqueue one message; returns True if it was delivered at once.

        :meth:`_accept` then :meth:`_enqueue`: an expired message, or a
        persistent one whose write-ahead append failed, is rejected
        (returns False) without touching queue state.
        """
        if not self._accept(message, now):
            return False
        before = self.ledger.delivered
        self._enqueue(message, now)
        return self.ledger.delivered > before

    def send_batch(self, messages: Sequence[Message], now: float = 0.0) -> int:
        """Enqueue a batch; returns how many reached a consumer inbox.

        The same stages as :meth:`send`, so per-message fates are those
        of a ``send`` loop; what differs is the order: *every* message is
        accepted before *any* is enqueued, and on a journaled queue each
        stage is one journal commit (:meth:`Journal.commit`) — the
        PUBLISH records of the batch are one run, on disk and under the
        sync policy's fsync before any message is enqueued, and the
        DELIVER, dropped and expired records of the enqueue stage are a
        second: two disk writes and at most two fsyncs a batch, where a
        ``send`` loop pays per record (the ``t_sync/b`` amortization with
        ``b`` the batch).

        A write fault tears one record of a run.  The message whose
        PUBLISH tore is rejected exactly as ``send`` rejects it — counted
        in :attr:`journal_write_failures`, never enqueued, never a later
        record's subject; a torn record of the enqueue stage is counted
        as ``_drain`` counts it.

        The enqueue stage still runs per message — draining once at
        the end would shed arrivals a sequential sender's consumers
        would have absorbed between sends on a bounded queue.
        """
        before = self.ledger.delivered
        with _commit_scope(self.journal, now) as accept:
            accepted = [m for m in messages if self._accept(m, now)]
        if accept.torn:
            # The held records were the PUBLISHes of the persistent
            # messages accepted, in that order.
            written = [m for m in accepted if m.delivery_mode is DeliveryMode.PERSISTENT]
            rejected = [written[position] for position in accept.torn]
            for message in rejected:
                self._journaled.discard(message.message_id)
                self.ledger.record("journal_write_failures")
            accepted = [m for m in accepted if not any(m is r for r in rejected)]
        with _commit_scope(self.journal, now) as enqueue:
            for message in accepted:
                self._enqueue(message, now)
        if enqueue.torn:
            self.ledger.record("journal_write_failures", len(enqueue.torn))
        return self.ledger.delivered - before

    def _shed_overflow(self, now: float) -> None:
        """Drop one backlog entry according to :attr:`drop_policy`."""
        if self.drop_policy is DropPolicy.DROP_OLDEST:
            message, _ = self._backlog.popleft()
            self._redeliveries.pop(message.message_id, None)
            self._journal_terminal(message.message_id, "dropped", now=now)
            self.ledger.record("dropped_oldest")
            return
        if self.drop_policy is DropPolicy.DEADLINE_SHED:
            victim = self._first_unmeetable(now)
            if victim is not None:
                message, _ = self._backlog[victim]
                del self._backlog[victim]
                self._redeliveries.pop(message.message_id, None)
                self._journal_terminal(message.message_id, "dropped", now=now)
                self.ledger.record("deadline_shed")
                return
        # DROP_NEW, and the DEADLINE_SHED fallback when every queued
        # message is still servable: tail drop.
        message, _ = self._backlog.pop()
        self._redeliveries.pop(message.message_id, None)
        self._journal_terminal(message.message_id, "dropped", now=now)
        self.ledger.record("dropped_new")

    def _first_unmeetable(self, now: float) -> Optional[int]:
        """Index of the first queued message whose deadline cannot be met.

        With a drain-rate estimate, position ``i`` completes around
        ``now + (i + 1) / drain_rate``; without one, only messages whose
        expiration has already passed are unmeetable.
        """
        for index, (message, _) in enumerate(self._backlog):
            if message.expiration is None:
                continue
            if self.drain_rate is not None:
                eta = now + (index + 1) / self.drain_rate
            else:
                eta = now
            if eta >= message.expiration:
                return index
        return None

    def crash(self, now: float = 0.0) -> QueueCrashReport:
        """Apply server-crash semantics to this queue.

        All consumers are force-detached (their connections died with the
        server).  Non-persistent messages are lost and counted in
        :attr:`lost_on_crash`.  What happens to persistent messages
        depends on whether the queue is journalled:

        - **without a journal** (the pre-durability emulation) they are
          requeued from memory with the redelivered flag, as if a journal
          had been replayed;
        - **with a journal** the in-memory copies are discarded — memory
          died with the process — and the report shows ``recovered=0``.
          Real recovery happens later by replaying the log
          (:func:`repro.durability.recovery.recover_broker`), which
          reinstates exactly the committed messages via :meth:`restore`.
        """
        in_flight: List[QueueDelivery] = []
        for consumer in list(self._consumers):
            in_flight.extend(consumer.unacked.values())
            in_flight.extend(consumer.inbox)
            consumer.unacked.clear()
            consumer.inbox.clear()
            consumer.attached = False
            consumer.queue = None
        self._consumers.clear()
        self._next_consumer = 0
        survivors: List[Message] = [m for m, _ in self._backlog]
        self._backlog.clear()
        recovered = lost = 0
        dead_before = self.ledger.dead_lettered
        # Requeue newest first so appendleft leaves the oldest at the head.
        ordered = sorted(
            survivors + [d.message for d in in_flight],
            key=lambda m: m.message_id,
            reverse=True,
        )
        for message in ordered:
            if message.delivery_mode is not DeliveryMode.PERSISTENT:
                lost += 1
                self.ledger.record("lost_on_crash")
                self._redeliveries.pop(message.message_id, None)
                continue
            if self.journal is not None:
                # The journal, not memory, is the recovery source.
                self.ledger.record("discarded_on_crash")
                continue
            recovered += 1
            self._requeue(message, now=now)
        if self.journal is not None:
            self._redeliveries.clear()
            self._journaled.clear()
        return QueueCrashReport(
            queue=self.name,
            recovered=recovered,
            lost=lost,
            dead_lettered=self.ledger.dead_lettered - dead_before,
        )

    def restore(self, message: Message, delivers: int = 0, now: float = 0.0) -> str:
        """Reinstate one journal-recovered message (recovery only).

        ``delivers`` is how many times the journal saw the message handed
        to a consumer without a matching ack.  Returns the fate:

        - ``"expired"`` — its TTL elapsed (possibly while the server was
          down); counted like a drain-time expiry, never delivered late;
        - ``"dead_letter"`` — the redelivery budget is already exhausted,
          so the poison message goes straight to :attr:`dead_letters`
          instead of crash-looping;
        - ``"requeued"`` — back in the backlog, flagged ``redelivered``
          iff it had been delivered before the crash (exactly-once
          requeueing: recovery never duplicates a backlog entry).

        Restoring a message does not count as a new :attr:`enqueued` —
        the original send did.  Replaying the same log onto two fresh
        brokers yields identical state, but a *terminal* fate decided
        here (expired / dead-lettered) is journalled (EXPIRE / ACK) so
        the log converges: the next recovery over the same journal sees
        the message as terminal instead of re-deciding — and
        re-counting — the same fate.  A bounded queue honours
        :attr:`capacity` during restore exactly like :meth:`send` does,
        shedding (and journalling the drop) via the :attr:`drop_policy`.
        """
        if delivers < 0:
            raise ValueError(f"delivers must be >= 0, got {delivers}")
        self.ledger.record("restored")
        if self.journal is not None and message.delivery_mode is DeliveryMode.PERSISTENT:
            self._journaled.add(message.message_id)
        if message.expired(now):
            self._count_drain_expiry(message)
            return "expired"
        if self.max_redeliveries is not None and delivers > self.max_redeliveries:
            self._journal_terminal(message.message_id, "dead_letter", now=now)
            self.dead_letters.append(message)
            self.ledger.record("dead_lettered")
            return "dead_letter"
        if delivers > 0:
            message.mark_redelivered()
            self._redeliveries[message.message_id] = delivers
            self.ledger.record("redelivered")
        self._backlog.append((message, message.redelivered))
        self._enforce_capacity(now)
        return "requeued"

    # ------------------------------------------------------------------
    def has_message(self, message_id: int) -> bool:
        """Is ``message_id`` live here (backlog, in flight, or journaled)?"""
        if message_id in self._journaled:
            return True
        if any(m.message_id == message_id for m, _ in self._backlog):
            return True
        for consumer in self._consumers:
            if message_id in consumer.unacked:
                return True
            if any(d.message.message_id == message_id for d in consumer.inbox):
                return True
        return False

    def transfer_out(self, message_id: int, now: float = 0.0) -> Optional[Message]:
        """Remove one backlog message whose ownership moved to another shard.

        The mesh rebalancer calls this at handoff commit (and during
        roll-forward recovery, when a crashed source restarts after the
        partition table already flipped).  The message's terminal fate
        here is "transferred": journalled like an ack so a later replay
        of this shard's log does not resurrect a copy the new owner
        already has.  Returns the message, or ``None`` when it is not in
        the backlog (already delivered, or never here).
        """
        for index, (message, _redelivered) in enumerate(self._backlog):
            if message.message_id == message_id:
                del self._backlog[index]
                self._redeliveries.pop(message_id, None)
                self._journal_terminal(message_id, "transferred", now=now)
                self.ledger.record("transferred_out")
                return message
        return None

    def transfer_in(self, message: Message, delivers: int = 0, now: float = 0.0) -> str:
        """Accept one message handed off from another shard.

        The receiving half of a mesh handoff: like :meth:`restore`, the
        message does not re-count as ``enqueued`` (the original send on
        the source shard did) — it lands in :attr:`transferred_in`.  The
        journal write happens *before* the message becomes visible, so a
        destination crash after apply replays it from this shard's own
        log.  Returns the fate:

        - ``"duplicate"`` — already live here (an idempotent re-apply of
          a retried transfer); nothing counted, nothing changed;
        - ``"rejected"`` — the write-ahead append failed; the message
          never entered this queue and stays owned by the source;
        - ``"dropped"`` — its TTL elapsed while the handoff was in
          flight; counted in :attr:`dropped_on_handoff`;
        - ``"applied"`` — live in the backlog (flagged redelivered when
          the source had delivered it before).
        """
        if delivers < 0:
            raise ValueError(f"delivers must be >= 0, got {delivers}")
        if self.has_message(message.message_id):
            return "duplicate"
        if not self._write_ahead(message, now):
            return "rejected"
        self.ledger.record("transferred_in")
        if message.expired(now):
            self._journal_terminal(message.message_id, "expired", now=now)
            self.ledger.record("dropped_on_handoff")
            return "dropped"
        if delivers > 0:
            message.mark_redelivered()
            self._redeliveries[message.message_id] = delivers
            self.ledger.record("redelivered")
        self._backlog.append((message, message.redelivered))
        self._enforce_capacity(now)
        self._drain(now)
        return "applied"

    def reap_expired(self, now: float = 0.0) -> int:
        """Shed expired deliveries parked in consumer inboxes.

        Deadline propagation's last stage: a delivery whose deadline
        passed after it left the backlog but before its consumer took it
        is dead work — reap it (journalled terminal ``expired``, counted
        :attr:`expired_in_flight`) instead of letting the consumer
        process a message that is already worthless.  Unacked messages
        are *not* reaped: they are with the consumer, mid-processing,
        and their fate is the ack/redelivery contract's to decide.

        Returns the number of deliveries reaped.
        """
        reaped = 0
        for consumer in self._consumers:
            survivors = [
                delivery
                for delivery in consumer.inbox
                if not delivery.message.expired(now)
            ]
            if len(survivors) == len(consumer.inbox):
                continue
            for delivery in consumer.inbox:
                if delivery.message.expired(now):
                    self.ledger.record("expired_in_flight")
                    self._redeliveries.pop(delivery.message.message_id, None)
                    self._journal_terminal(
                        delivery.message.message_id, "expired", now=now
                    )
                    reaped += 1
            consumer.inbox.clear()
            consumer.inbox.extend(survivors)
        return reaped

    def _on_ack(self, message_id: int) -> None:
        self.ledger.record("acked")
        self._redeliveries.pop(message_id, None)
        self._journal_terminal(message_id, "acked")

    def _count_drain_expiry(self, message: Message) -> None:
        """Count a message whose TTL ran out while it sat in the backlog."""
        self.ledger.record("expired_at_drain")
        self._redeliveries.pop(message.message_id, None)
        self._journal_terminal(message.message_id, "expired")

    def _requeue(self, message: Message, now: float = 0.0) -> None:
        """Return a message to the backlog head, or dead-letter it.

        A message that is both expired *and* out of redelivery budget is
        counted exactly once, as expired: TTL is checked first, so it
        never also lands in the dead-letter store.
        """
        if message.expired(now):
            self._count_drain_expiry(message)
            return
        count = self._redeliveries.get(message.message_id, 0) + 1
        if self.max_redeliveries is not None and count > self.max_redeliveries:
            self._redeliveries.pop(message.message_id, None)
            self._journal_terminal(message.message_id, "dead_letter", now=now)
            self.dead_letters.append(message)
            self.ledger.record("dead_lettered")
            return
        self._redeliveries[message.message_id] = count
        message.mark_redelivered()
        self._backlog.appendleft((message, True))
        self.ledger.record("redelivered")

    def _eligible(self, message: Message) -> List[QueueConsumer]:
        return [c for c in self._consumers if c.selector.matches(message)]

    def _drain(self, now: float = 0.0) -> None:
        """Hand backlog messages to consumers, round-robin among eligible.

        Messages whose TTL elapsed while they waited are counted as
        expired and removed instead of being delivered late.
        """
        if not self._consumers:
            return
        progressed = True
        while self._backlog and progressed:
            progressed = False
            message, redelivered = self._backlog[0]
            if message.expired(now):
                self._backlog.popleft()
                self._count_drain_expiry(message)
                progressed = True
                continue
            eligible = self._eligible(message)
            if not eligible:
                return  # head-of-line waits for a matching consumer
            consumer = eligible[self._next_consumer % len(eligible)]
            self._next_consumer += 1
            self._backlog.popleft()
            consumer.inbox.append(
                QueueDelivery(message, consumer.consumer_id, redelivered=redelivered)
            )
            self.ledger.record("delivered")
            if self.journal is not None and message.message_id in self._journaled:
                try:
                    self.journal.log_deliver(
                        "queue", self.name, message.message_id, consumer.consumer_id, now=now
                    )
                except self._write_fault:
                    self.ledger.record("journal_write_failures")
            progressed = True


# The read surface ``queue.<counter>``: one read-only view per table row.
for _fate in FATE_TABLE:
    _view = property(operator.attrgetter(f"ledger.{_fate.name}"), doc=_fate.why)
    setattr(PointToPointQueue, _fate.name, _view)


@dataclass
class QueueManager:
    """Registry of point-to-point queues (the queue-domain counterpart of
    the topic registry).

    ``stats`` (optional) is handed to every created queue so drain-time
    expiry, dead-lettering and overload drops aggregate into one
    broker-wide ledger.
    """

    _queues: Dict[str, PointToPointQueue] = field(default_factory=dict)
    stats: Optional[BrokerStats] = None
    journal: Optional["Journal"] = None

    def create(
        self,
        name: str,
        max_redeliveries: Optional[int] = None,
        capacity: Optional[int] = None,
        drop_policy: DropPolicy = DropPolicy.DROP_NEW,
        drain_rate: Optional[float] = None,
    ) -> PointToPointQueue:
        queue = self._queues.get(name)
        if queue is None:
            queue = PointToPointQueue(
                name,
                max_redeliveries=max_redeliveries,
                capacity=capacity,
                drop_policy=drop_policy,
                drain_rate=drain_rate,
                stats=self.stats,
                journal=self.journal,
            )
            self._queues[name] = queue
        return queue

    def get(self, name: str) -> PointToPointQueue:
        queue = self._queues.get(name)
        if queue is None:
            raise InvalidDestinationError(f"unknown queue {name!r}")
        return queue

    def imbalances(self) -> List[str]:
        """The per-leg dump of every queue whose ledger does not balance
        (empty when all conserve) — a chaos harness's violation entries."""
        dumps: List[str] = []
        for name in sorted(self._queues):
            try:
                self._queues[name].closed_ledger().assert_conserved(f"queue {name}")
            except AssertionError as imbalance:
                dumps.append(str(imbalance))
        return dumps

    def crash_all(self, now: float = 0.0) -> List[QueueCrashReport]:
        """Crash-recover every queue (deterministic name order)."""
        return [self._queues[name].crash(now) for name in sorted(self._queues)]

    def __contains__(self, name: str) -> bool:
        return name in self._queues

    def __len__(self) -> int:
        return len(self._queues)

    def __iter__(self):
        return iter(self._queues.values())
