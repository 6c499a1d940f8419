"""The sharded broker facade — N brokers behind one routing surface.

Each :class:`Shard` is a full single-node stack: its own
:class:`~repro.durability.disk.SimulatedDisk`, its own write-ahead
:class:`~repro.durability.journal.Journal` and its own
:class:`~repro.broker.server.Broker` (with the PR 4
:class:`~repro.broker.filter_index.FilterIndex` installed).  The
:class:`ShardedBroker` facade routes every queue send, topic publish,
consumer attach and ack to the shard the control plane says owns the
destination (partition table first, consistent-hash ring for
never-assigned keys).

Cross-shard dispatch: wildcard / hierarchy subscriptions
(:class:`~repro.broker.hierarchy.TopicPattern`) are held mesh-level in a
:class:`~repro.broker.hierarchy.TopicTrie`.  When a concrete topic is
first routed, every matching wildcard subscription is *installed* on the
owner shard as an ordinary subscription — fan-out then flows through
that shard's ``FilterIndex`` exactly like a local subscriber, so the
Eq. 3 filter accounting keeps holding per shard.

Degraded-mode routing: a shard whose health FSM reports
:attr:`~repro.overload.health.HealthState.SHEDDING` (or that is crashed
and not yet recovered) sheds *only its own partitions* — sends and
publishes routed to it are refused and counted, every other shard keeps
serving.  :meth:`ShardedBroker.survivor_trajectory` composes a shard
loss with :func:`~repro.overload.survivor.survivor_rho_trajectory` using
the ring weights to size the surviving load.

:meth:`ShardedBroker.recover` follows the recovery no-raise contract:
per-shard failures land in the report, and restored messages for keys
the partition table meanwhile assigned elsewhere are **rolled forward**
— discarded as ``transferred_out`` because the new owner already holds
them (the single-ownership half of the handoff protocol).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..broker.errors import SubscriptionError
from ..broker.hierarchy import TopicPattern, TopicTrie
from ..broker.ledger import Ledger
from ..broker.message import DeliveredMessage, Message
from ..broker.queues import PointToPointQueue, QueueConsumer
from ..broker.server import Broker, PublishResult
from ..durability.disk import SimulatedDisk
from ..durability.journal import Journal, SyncPolicy
from ..overload.health import HealthState
from ..overload.survivor import SurvivorTrajectory, survivor_rho_trajectory
from .membership import MeshMembership, ShardState
from .ring import placement_key

__all__ = [
    "MeshRecoveryReport",
    "Shard",
    "ShardRecovery",
    "ShardedBroker",
    "WildcardSubscription",
]


class Shard:
    """One mesh member: disk + journal + broker + health."""

    def __init__(
        self,
        shard_id: str,
        topics: Sequence[str] = (),
        sync: Optional[SyncPolicy] = None,
        segment_bytes: int = 4096,
    ):
        if not shard_id:
            raise ValueError("shard id must be non-empty")
        self.shard_id = shard_id
        self.disk = SimulatedDisk()
        self.journal = Journal(
            self.disk,
            name="journal",
            sync=sync if sync is not None else SyncPolicy.always(),
            segment_bytes=segment_bytes,
        )
        self.broker = Broker(topics=list(topics), journal=self.journal)
        self.broker.install_filter_index()
        self.health: HealthState = HealthState.HEALTHY
        self.crashed = False

    @property
    def available(self) -> bool:
        """Can this shard accept traffic for its partitions right now?"""
        return not self.crashed and self.health is not HealthState.SHEDDING

    def crash(self, now: float = 0.0) -> None:
        """The shard process dies; its disk (and journal) survive."""
        self.broker.crash(now)
        self.crashed = True

    def mark_health(self, state: HealthState) -> None:
        self.health = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.shard_id!r}, crashed={self.crashed}, "
            f"health={self.health.name})"
        )


@dataclass
class ShardRecovery:
    """One shard's slice of a mesh recovery pass."""

    shard_id: str
    succeeded: bool = False
    restored: int = 0
    #: Restored messages discarded because the partition table says
    #: another shard owns their key now (handoff roll-forward).
    rolled_forward: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class MeshRecoveryReport:
    """Aggregate of :meth:`ShardedBroker.recover` — never raises."""

    started_at: float
    shards: List[ShardRecovery] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.succeeded for s in self.shards)

    @property
    def rolled_forward(self) -> int:
        return sum(s.rolled_forward for s in self.shards)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "started_at": self.started_at,
            "ok": self.ok,
            "rolled_forward": self.rolled_forward,
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "succeeded": s.succeeded,
                    "restored": s.restored,
                    "rolled_forward": s.rolled_forward,
                    "errors": list(s.errors),
                }
                for s in self.shards
            ],
        }


@dataclass
class WildcardSubscription:
    """A mesh-level wildcard subscription and where it got installed."""

    subscriber_id: str
    pattern: TopicPattern
    message_filter: Any
    durable: bool
    #: The copies delivered to this subscriber across all shards, as
    #: each shard's :class:`~repro.broker.subscriptions.Subscriber` hands
    #: them to ``on_message`` (``.message`` is the published message).
    received: List[DeliveredMessage] = field(default_factory=list)
    #: Topic names this subscription has been installed for.
    installed_topics: List[str] = field(default_factory=list)


class ShardedBroker:
    """Route a broker API across N consistent-hash-placed shards."""

    def __init__(
        self,
        shard_ids: Sequence[str],
        vnodes: int = 32,
        topics: Sequence[str] = (),
        sync: Optional[SyncPolicy] = None,
        segment_bytes: int = 4096,
        lease_duration: float = 0.5,
        hop_latency: float = 0.0,
    ):
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        self.membership = MeshMembership(
            shard_ids, vnodes=vnodes, lease_duration=lease_duration
        )
        self._topics = tuple(topics)
        self._sync = sync
        self._segment_bytes = segment_bytes
        self._shards: Dict[str, Shard] = {}
        for shard_id in sorted(shard_ids):
            self._shards[shard_id] = Shard(
                shard_id, topics=topics, sync=sync, segment_bytes=segment_bytes
            )
        self._wildcards: TopicTrie[WildcardSubscription] = TopicTrie()
        self._wildcard_subs: List[WildcardSubscription] = []
        #: Seconds one routing hop (ingress router → owner shard) takes;
        #: deadline propagation charges every routed message this much
        #: before it reaches the owner's queue/topic.
        self.hop_latency = hop_latency
        # -- counters ----------------------------------------------------
        self.routed_sends = 0
        self.routed_publishes = 0
        #: Messages shed mid-hop: their deadline expired during the
        #: routing latency, so the owner shard never saw them (deadline
        #: propagation's mesh stage; they never enter a queue ledger).
        self.expired_on_hop = 0
        #: Sends/publishes refused because the owner shard is SHEDDING
        #: or crashed — the shard sheds only its own partitions.
        self.shed_unavailable = 0
        #: Sends/publishes refused because the key is mid-handoff (the
        #: caller should retry after the rebalance commits).
        self.deferred_migrating = 0
        #: Wildcard subscriptions installed onto owner shards (each one
        #: is a cross-shard dispatch edge through that shard's
        #: FilterIndex).
        self.wildcard_installs = 0
        #: Message copies fanned out to wildcard subscribers.
        self.wildcard_deliveries = 0

    # ------------------------------------------------------------------
    # Shard access / placement
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._shards))

    def shard(self, shard_id: str) -> Shard:
        if shard_id not in self._shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        return self._shards[shard_id]

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(self._shards[shard_id] for shard_id in sorted(self._shards))

    def owner_id(self, domain: str, name: str) -> str:
        """The shard owning a destination; assigns fresh keys via the ring."""
        key = placement_key(domain, name)
        owner = self.membership.table.owner(key)
        if owner is None:
            owner = self.membership.ring.owner(key)
            self.membership.table.assign(key, owner)
        return owner

    def owner_shard(self, domain: str, name: str) -> Shard:
        return self.shard(self.owner_id(domain, name))

    def add_shard(self, shard_id: str) -> Shard:
        """Create the data plane for a joining shard (no handoff yet).

        Call :meth:`MeshMembership.join` (or let the rebalance engine
        do it) to produce the ownership moves; this only builds the
        broker stack so there is something to hand keys to.
        """
        if shard_id in self._shards and not self._shards[shard_id].crashed:
            raise ValueError(f"shard {shard_id!r} already exists")
        shard = Shard(
            shard_id,
            topics=self._topics,
            sync=self._sync,
            segment_bytes=self._segment_bytes,
        )
        self._shards[shard_id] = shard
        return shard

    # ------------------------------------------------------------------
    # Queue domain
    # ------------------------------------------------------------------
    def create_queue(self, name: str, **kwargs: Any) -> PointToPointQueue:
        return self.owner_shard("queue", name).broker.queues.create(name, **kwargs)

    def queue(self, name: str) -> PointToPointQueue:
        """The owner shard's queue object (created on first use)."""
        return self.owner_shard("queue", name).broker.queues.create(name)

    def _route(self, domain: str, name: str, count: int) -> Optional[Shard]:
        """The routing decision, once for all four entry points: is the
        key mid-handoff (``deferred_migrating`` — retry after the
        rebalance commits)?  Who owns it?  Is the owner available
        (``shed_unavailable`` — degraded-mode routing: a shedding or
        crashed shard sheds only its own partitions, the mesh stays up)?
        Counters count *messages*: ``count`` of them share the decision.
        Returns the owner shard, or ``None`` when the traffic is refused.
        """
        if self.membership.table.is_migrating(placement_key(domain, name)):
            self.deferred_migrating += count
            return None
        shard = self.owner_shard(domain, name)
        if not shard.available:
            self.shed_unavailable += count
            return None
        if domain == "topic":
            # First route materializes the topic on its owner shard, with
            # any pending wildcard subscriptions, so the fan-out —
            # including cross-shard wildcard subscribers — happens
            # through that shard's FilterIndex in a single dispatch pass.
            shard.broker.topics.create(name)
            self._install_wildcards(shard, name)
            self.routed_publishes += count
        else:
            self.routed_sends += count
        return shard

    def _hop(self, messages: Sequence[Message], now: float) -> Tuple[float, List[int]]:
        """The routing hop (ingress router → owner shard), once for all
        four entry points: the owner sees the messages at ``arrival =
        now + hop_latency``, and a message whose deadline passes on the
        way is dead on arrival — shed mid-hop (``expired_on_hop``)
        instead of paying a full dispatch.  Returns ``arrival`` and the
        positions of the messages still alive then."""
        arrival = now + self.hop_latency
        if self.hop_latency > 0.0:
            alive = [i for i, m in enumerate(messages) if not m.expired(arrival)]
            self.expired_on_hop += len(messages) - len(alive)
            return arrival, alive
        return arrival, list(range(len(messages)))

    def send(self, name: str, message: Message, now: float = 0.0) -> bool:
        """Route one queue send to the owner shard (:meth:`_route`, then
        :meth:`_hop`).

        Mirrors :meth:`~repro.broker.queues.PointToPointQueue.send`
        (True iff delivered to a consumer at once); additionally returns
        False without enqueueing when routing refuses the key or the
        message dies on the hop.
        """
        shard = self._route("queue", name, 1)
        if shard is None:
            return False
        arrival, alive = self._hop((message,), now)
        if not alive:
            return False
        return shard.broker.queues.create(name).send(message, now=arrival)

    def send_batch(self, name: str, messages: Sequence[Message], now: float = 0.0) -> int:
        """Route a whole batch to one queue: the stages of :meth:`send`,
        run once for the batch instead of once per message.

        The owner queue ingests the survivors through
        :meth:`~repro.broker.queues.PointToPointQueue.send_batch`.
        Returns the number of messages delivered to a consumer during
        the call.
        """
        if not messages:
            return 0
        shard = self._route("queue", name, len(messages))
        if shard is None:
            return 0
        arrival, alive = self._hop(messages, now)
        if not alive:
            return 0
        return shard.broker.queues.create(name).send_batch(
            [messages[i] for i in alive], now=arrival
        )

    def attach_consumer(
        self, name: str, consumer: QueueConsumer, now: float = 0.0
    ) -> None:
        self.owner_shard("queue", name).broker.queues.create(name).attach(
            consumer, now=now
        )

    # ------------------------------------------------------------------
    # Topic domain (concrete + wildcard cross-shard dispatch)
    # ------------------------------------------------------------------
    def publish(self, message: Message, now: float = 0.0) -> Optional[PublishResult]:
        """Route one publish to the topic's owner shard (:meth:`_route`,
        then :meth:`_hop`).  Returns ``None`` when routing refuses the
        topic or the message dies on the hop."""
        shard = self._route("topic", message.topic, 1)
        if shard is None:
            return None
        arrival, alive = self._hop((message,), now)
        if not alive:
            return None
        return shard.broker.publish(message, now=arrival)

    def publish_batch(
        self, messages: Sequence[Message], now: float = 0.0
    ) -> List[Optional[PublishResult]]:
        """Route a batch of topic publishes: the stages of
        :meth:`publish`, run once per distinct topic (routing) and once
        per owner shard (hop) instead of once per message.

        Each shard ingests its slice through
        :meth:`~repro.broker.server.Broker.publish_batch`.  Returns
        per-message results in input order, ``None`` where the scalar
        :meth:`publish` would have returned ``None``.
        """
        results: List[Optional[PublishResult]] = [None] * len(messages)
        routes = {
            topic_name: self._route("topic", topic_name, count)
            for topic_name, count in Counter(m.topic for m in messages).items()
        }
        shard_slices: Dict[str, List[int]] = {}
        for index, message in enumerate(messages):
            shard = routes[message.topic]
            if shard is not None:
                shard_slices.setdefault(shard.shard_id, []).append(index)
        for shard_id, indices in shard_slices.items():
            arrival, alive = self._hop([messages[i] for i in indices], now)
            if not alive:
                continue
            survivors = [indices[i] for i in alive]
            batch = self._shards[shard_id].broker.publish_batch(
                [messages[i] for i in survivors], now=arrival
            )
            for index, result in zip(survivors, batch.results):
                results[index] = result
        return results

    def subscribe(
        self,
        subscriber_id: str,
        topic_name: str,
        message_filter: Any = None,
        durable: bool = False,
    ) -> WildcardSubscription:
        """Subscribe (concrete or wildcard) through the mesh.

        Wildcard patterns register mesh-level and are materialized on
        each matching topic's owner shard when that topic first routes;
        concrete topics install immediately on their owner shard.
        """
        pattern = TopicPattern(topic_name)
        subscription = WildcardSubscription(
            subscriber_id=subscriber_id,
            pattern=pattern,
            message_filter=message_filter,
            durable=durable,
        )
        self._wildcard_subs.append(subscription)
        if pattern.is_concrete:
            shard = self.owner_shard("topic", topic_name)
            self._materialize(shard, subscription, topic_name)
        else:
            self._wildcards.insert(pattern, subscription)
        return subscription

    def _install_wildcards(self, shard: Shard, topic_name: str) -> None:
        for subscription in self._wildcards.lookup(topic_name):
            if topic_name in subscription.installed_topics:
                continue
            self._materialize(shard, subscription, topic_name)

    def _materialize(
        self, shard: Shard, subscription: WildcardSubscription, topic_name: str
    ) -> None:
        """Install one mesh subscription as a shard-local one."""
        shard.broker.topics.create(topic_name)
        try:
            subscriber = shard.broker.get_subscriber(subscription.subscriber_id)
        except SubscriptionError:  # not on this shard yet
            subscriber = shard.broker.add_subscriber(
                subscription.subscriber_id,
                on_message=self._fanout_callback(subscription),
            )
        shard.broker.subscribe(
            subscriber,
            topic_name,
            message_filter=subscription.message_filter,
            durable=subscription.durable,
        )
        subscription.installed_topics.append(topic_name)
        self.wildcard_installs += 1

    def _fanout_callback(
        self, subscription: WildcardSubscription
    ) -> Callable[[DeliveredMessage], None]:
        def on_message(delivery: DeliveredMessage) -> None:
            subscription.received.append(delivery)
            self._count_wildcard_delivery()

        return on_message

    def _count_wildcard_delivery(self) -> None:
        self.wildcard_deliveries += 1

    # ------------------------------------------------------------------
    # Health / degraded-mode routing
    # ------------------------------------------------------------------
    def set_health(self, shard_id: str, state: HealthState) -> None:
        self.shard(shard_id).mark_health(state)

    def survivor_trajectory(
        self,
        failed_shard: str,
        rho_before: float,
        failover_at: float,
        horizon: float,
        thresholds: Any = None,
        ramp: float = 0.0,
        dt: float = 0.05,
    ) -> SurvivorTrajectory:
        """Health-FSM trajectory of the survivors after losing one shard.

        The failed shard's ring weight ``w`` is redistributed onto the
        survivors, so their utilization steps from ``rho_before`` to
        ``rho_before / (1 − w)`` at ``failover_at`` — the mesh analogue
        of the PR 3 two-server failover composition.
        """
        weights = self.membership.ring.weights()
        weight = weights.get(failed_shard)
        if weight is None:
            raise ValueError(f"shard {failed_shard!r} not on the ring")
        if weight >= 1.0:
            raise ValueError("cannot fail the only shard on the ring")
        rho_after = rho_before / (1.0 - weight)
        return survivor_rho_trajectory(
            rho_before=rho_before,
            rho_after=rho_after,
            failover_at=failover_at,
            horizon=horizon,
            thresholds=thresholds,
            ramp=ramp,
            dt=dt,
        )

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: str, now: float = 0.0) -> None:
        self.shard(shard_id).crash(now)

    def recover(
        self, now: float = 0.0, shard_ids: Optional[Sequence[str]] = None
    ) -> MeshRecoveryReport:
        """Recover crashed shards (all of them by default); never raises.

        After the per-shard journal replay, any restored queue message
        whose placement key the partition table assigned to a *different*
        shard is rolled forward: the destination already owns it (the
        table only flips after the destination journalled the message),
        so the local copy leaves as ``transferred_out`` — exactly-once
        across the mesh, enforced at recovery time.
        """
        report = MeshRecoveryReport(started_at=now)
        wanted = set(self._shards if shard_ids is None else shard_ids)
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            if not shard.crashed or shard_id not in wanted:
                continue
            entry = ShardRecovery(shard_id=shard_id)
            report.shards.append(entry)
            try:
                entry.restored = shard.broker.recover(
                    reconnect_subscribers=False, now=now
                )
                entry.rolled_forward = self._roll_forward(shard, now)
                shard.crashed = False
                entry.succeeded = True
            except Exception as exc:
                entry.errors.append(f"recovery failed: {exc!r}")
        return report

    def _roll_forward(self, shard: Shard, now: float) -> int:
        """Discard restored copies of keys this shard no longer owns.

        Keys mid-migration are left alone: their ownership is being
        decided *right now*, and a handoff destination recovering
        between attempts holds journalled applies the table has not yet
        flipped to it — the transfer log already recorded them, so the
        retry will not re-apply, and discarding here would lose them.
        """
        rolled = 0
        for queue in sorted(shard.broker.queues, key=lambda q: q.name):
            key = placement_key("queue", queue.name)
            if self.membership.table.is_migrating(key):
                continue
            owner = self.membership.table.owner(key)
            if owner is None or owner == shard.shard_id:
                continue
            for message, _redelivered in list(queue._backlog):
                if queue.transfer_out(message.message_id, now=now) is not None:
                    rolled += 1
        return rolled

    # ------------------------------------------------------------------
    # Mesh-wide ledger
    # ------------------------------------------------------------------
    def mesh_ledger(self) -> Ledger:
        """The sum of every queue's closed ledger on every shard: one
        check covers the whole mesh, handoff legs included
        (``transferred_out`` on sources is matched by ``transferred_in``
        / ``dropped_on_handoff`` on destinations)."""
        queues = (queue for shard in self.shards() for queue in shard.broker.queues)
        return sum((queue.closed_ledger() for queue in queues), Ledger())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedBroker(shards={list(self.shard_ids)}, "
            f"keys={len(self.membership.table.keys())})"
        )
