"""The four workloads: how each stack is built, driven, probed and checked.

Every workload is a closed loop with one client: the product's API is
synchronous and in-process, so the caller waits for each call to return.
A workload object holds one seed's inputs for the life of the process;
``build()`` constructs a fresh stack per repetition and returns a
:class:`Stack` of closures the runner in ``measure.py`` drives:

``lifecycle(item)``
    One message (or one batch) from ``Message(...)`` construction to the
    return of the call that receives and acks its last copy.  Returns
    whatever ``verify`` needs; it does no checking itself.
``maintain()``
    The periodic checkpoint, run between lifecycles every ``every``
    items: inside the throughput clock, outside every latency.
``probe()``
    After the clock stops: leave messages in flight, crash, recover (or
    promote) and compare what came back with what was never acked.
``verify(items, outcomes)``
    The output oracle, called with the clock stopped on one chunk of
    items and what ``lifecycle`` returned for them; the runner then drops
    the chunk, so the heap a repetition holds stays small.  Returns the
    number of lifecycles with a wrong outcome.

With a tracer, the same closures run with spans around each call into a
layer (see ``tracing.py``); ``build_ablation()`` returns the same loop on
the stack one layer short, for the ``*.marginal_us_per_msg`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import thread_time as clock
from typing import Any, Callable, Dict, List, Optional

from repro.broker import Broker, Message, PropertyFilter, QueueConsumer
from repro.durability import Journal, SimulatedDisk, SyncPolicy, collect_live_entries
from repro.mesh import ShardedBroker
from repro.replication import ReplicatedPair, ReplicationConfig

from inputs import (
    MESH_DEADLINE_IN_FLIGHT,
    MESH_DEADLINE_ON_HOP,
    MESH_HOP_LATENCY,
    MESH_PICKUP_DELAY,
    QUICK_DIVISOR,
    Inputs,
)
from tracing import ROOT, Tracer

SEGMENT_BYTES = 64 * 1024
MEMO_SIZE = 1024
#: Virtual clock step of the replicated pair, seconds.
REPLICATION_STEP = 0.001
REPLICATION_FRAME_BATCH = 16
MESH_SHARDS = ("s0", "s1", "s2", "s3")
#: Virtual time between two mesh batches, seconds.
MESH_BATCH_INTERVAL = 0.01


@dataclass
class ProbeResult:
    timings: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)


@dataclass
class Stack:
    """One repetition's stack under test, as closures over its objects."""

    lifecycle: Callable[[Any], Any]
    verify: Callable[[list, list], int]
    #: Exact counts, read after ``verify`` and before ``probe``.
    counts: Callable[[], Dict[str, float]]
    maintain: Optional[Callable[[], None]] = None
    #: Items between two ``maintain`` calls.
    every: int = 0
    #: Returns ``{metric: seconds}``, lifecycles checked, lifecycles failed.
    probe: Optional[Callable[[], ProbeResult]] = None


def _traced(tracer: Optional[Tracer], name: str, function: Callable) -> Callable:
    return function if tracer is None else tracer.timed(name, function)


def _drain_all(consumer: QueueConsumer) -> List[Message]:
    """Receive and ack everything a (post-recovery) consumer is handed."""
    messages = []
    while True:
        delivery = consumer.receive()
        if delivery is None:
            return messages
        consumer.ack(delivery)
        messages.append(delivery.message)


def _restored_mismatch(restored: List[Message], expected: List[int]) -> int:
    """Messages lost, duplicated or resurrected by a recovery."""
    ids = [message.message_id for message in restored]
    return len(set(ids) ^ set(expected)) + (len(ids) - len(set(ids)))


class Workload:
    """Base: one seed's inputs plus what is computed once per process."""

    name = ""
    #: ``build()`` calls per repetition; ``setup_s`` is their median.  A
    #: constant, so the global id counters advance identically every run.
    setup_builds = 5
    #: Metric names of the periodic checkpoint and of the ablation.
    checkpoint_metric = ""
    marginal_metric = ""

    def __init__(self, inputs: Inputs, quick: bool = False):
        self.inputs = inputs
        self.quick = quick

    def _period(self, full: int) -> int:
        return max(full // QUICK_DIVISOR, 1) if self.quick else full

    def build(self, tracer: Optional[Tracer] = None) -> Stack:
        raise NotImplementedError

    def build_ablation(self) -> Stack:
        raise NotImplementedError


# ----------------------------------------------------------------------
# fanout_filtered
# ----------------------------------------------------------------------
class FanoutFiltered(Workload):
    name = "fanout_filtered"

    def __init__(self, inputs: Inputs, quick: bool = False):
        super().__init__(inputs, quick)
        self._reference: Optional[Dict[int, tuple]] = None

    def _broker(self, sink: Optional[list]) -> Broker:
        broker = Broker(topics=["ticks"])
        for subscriber_id, topic, selector in self.inputs.subscriptions:
            subscriber = broker.add_subscriber(subscriber_id)
            if sink is not None:
                subscriber.on_message = _consume_into(subscriber.inbox, sink)
            broker.subscribe(subscriber, topic, PropertyFilter(selector))
        return broker

    def reference(self) -> Dict[int, tuple]:
        """Recipients per message shape from a memo-less linear scan,
        computed once per process.  Shapes are shared dict objects in the
        input, so ``id(properties)`` names a shape."""
        if self._reference is None:
            broker = self._broker(sink=None)
            shapes = {id(item[1]): item[1] for item in self.inputs.items}
            self._reference = {
                key: tuple(
                    subscription.subscriber.subscriber_id
                    for subscription in broker.dry_run(
                        Message(topic="ticks", properties=properties)
                    ).matches
                )
                for key, properties in shapes.items()
            }
        return self._reference

    def build(self, tracer: Optional[Tracer] = None) -> Stack:
        sink: list = []
        broker = self._broker(sink)
        broker.install_dispatch_memo(MEMO_SIZE)
        build = _traced(tracer, "broker.message_build", Message)
        publish = _traced(tracer, "broker.publish", broker.publish)

        def lifecycle(item: tuple) -> Any:
            topic, properties, body, _deadline = item
            return publish(build(topic=topic, properties=properties, body=body))

        def verify(items: list, outcomes: list) -> int:
            reference, failed, cursor = self.reference(), 0, 0
            for item, result in zip(items, outcomes):
                expected = reference[id(item[1])]
                copies = sink[cursor : cursor + result.copies_delivered]
                cursor += result.copies_delivered
                if (
                    result.expired
                    or len(copies) != len(expected)
                    or any(
                        copy.message is not result.message or copy.subscriber_id != wanted
                        for copy, wanted in zip(copies, expected)
                    )
                ):
                    failed += 1
            unclaimed = len(sink) - cursor
            sink.clear()
            return failed + unclaimed

        def counts() -> Dict[str, float]:
            memo, stats = broker.dispatch_memo("ticks"), broker.stats
            assert memo is not None
            return {
                "broker.memo_hit_ratio": memo.hits / (memo.hits + memo.misses),
                "broker.filters_per_msg": stats.filters_evaluated / stats.received,
                "broker.copies_per_msg": stats.dispatched / stats.received,
            }

        return Stack(_traced(tracer, ROOT, lifecycle), verify, counts)

    def build_ablation(self) -> Stack:
        """Planning only: ``dry_run`` replays the same memo sequence and
        delivers nothing.  Each outcome is ``(seconds, filters billed)``."""
        broker = self._broker(sink=None)
        broker.install_dispatch_memo(MEMO_SIZE)
        dry_run = broker.dry_run

        def lifecycle(item: tuple) -> Any:
            message = Message(topic=item[0], properties=item[1], body=item[2])
            start = clock()
            plan = dry_run(message)
            return clock() - start, plan.filters_evaluated

        return Stack(lifecycle, lambda items, outcomes: 0, dict)


def _consume_into(inbox: Any, sink: list) -> Callable[[Any], None]:
    """A subscriber that consumes in ``on_message``: take the copy off
    the inbox at once and keep it for the oracle."""
    take, keep = inbox.popleft, sink.append

    def on_message(_delivery: Any) -> None:
        keep(take())

    return on_message


# ----------------------------------------------------------------------
# durable_queue (and the journaled-broker ablation of replicated_sync)
# ----------------------------------------------------------------------
class DurableQueue(Workload):
    name = "durable_queue"
    setup_builds = 50
    checkpoint_metric = "durability.checkpoint_ms"
    marginal_metric = "durability.marginal_us_per_msg"
    checkpoint_every = 2_000

    def build(self, tracer: Optional[Tracer] = None, journaled: bool = True) -> Stack:
        journal = None
        if journaled:
            journal = Journal(
                SimulatedDisk(), sync=SyncPolicy.always(), segment_bytes=SEGMENT_BYTES
            )
            if tracer is not None:
                tracer.trace_journal(journal)
        broker = Broker(journal=journal)
        queue = broker.queues.create("orders")
        consumer = QueueConsumer("worker")
        queue.attach(consumer)
        build = _traced(tracer, "broker.message_build", Message)
        send = _traced(tracer, "broker.send", queue.send)
        receive = _traced(tracer, "broker.receive", consumer.receive)
        ack = _traced(tracer, "broker.ack", consumer.ack)

        def lifecycle(item: tuple) -> Any:
            destination, properties, body, _deadline = item
            message = build(topic=destination, properties=properties, body=body)
            delivered = send(message)
            delivery = receive()
            ack(delivery)
            return message, delivered, delivery

        def maintain() -> None:
            assert journal is not None
            journal.checkpoint(collect_live_entries(broker))

        def probe() -> ProbeResult:
            sent = _leave_in_flight(self.inputs.probe_items, queue.send, consumer)
            start = clock()
            broker.crash()
            broker.recover()
            elapsed = clock() - start
            survivor = QueueConsumer("worker-after-crash")
            broker.queues.get("orders").attach(survivor)
            failed = _restored_mismatch(_drain_all(survivor), sent)
            report = broker.last_recovery
            notes = [] if report is None or report.clean else [f"recovery: {report.to_dict()}"]
            return ProbeResult(
                {"durability.recover_ms": elapsed}, len(sent), failed + len(notes), notes
            )

        def counts() -> Dict[str, float]:
            return _journal_counts([journal] if journal else [], self.inputs)

        return Stack(
            _traced(tracer, ROOT, lifecycle),
            _verify_cycles,
            counts,
            maintain=_traced(tracer, "durability.checkpoint", maintain) if journaled else None,
            every=self._period(self.checkpoint_every) if journaled else 0,
            probe=probe if journaled else None,
        )

    def build_ablation(self) -> Stack:
        return self.build(journaled=False)


def _verify_cycles(_items: list, outcomes: list) -> int:
    """Each cycle got back, once and not as a redelivery, what it sent."""
    return sum(
        1
        for message, delivered, delivery in outcomes
        if not delivered or delivery.message is not message or delivery.redelivered
    )


def _leave_in_flight(items: list, send: Callable, consumer: QueueConsumer) -> List[int]:
    """Send the probe messages; receive (never ack) the first half."""
    sent = []
    for destination, properties, body, _deadline in items:
        message = Message(topic=destination, properties=properties, body=body)
        send(message)
        sent.append(message.message_id)
    for _ in range(len(sent) // 2):
        consumer.receive()
    return sent


def _journal_counts(journals: list, inputs: Inputs) -> Dict[str, float]:
    """The write-ahead log's exact per-message counts (primary journals)."""
    if not journals:
        return {}
    messages = inputs.messages
    if inputs.workload == "mesh_batch":
        body_bytes = sum(len(m[2]) for _domain, batch in inputs.items for m in batch)
    else:
        body_bytes = sum(len(item[2]) for item in inputs.items)
    wal_bytes = sum(journal.disk.bytes_written for journal in journals)
    return {
        "durability.records_per_msg": sum(j.records_appended for j in journals) / messages,
        "durability.syncs_per_msg": sum(j.syncs for j in journals) / messages,
        "durability.wal_bytes_per_msg": wal_bytes / messages,
        "durability.wal_amplification": wal_bytes / body_bytes,
    }


# ----------------------------------------------------------------------
# replicated_sync
# ----------------------------------------------------------------------
class ReplicatedSync(Workload):
    name = "replicated_sync"
    setup_builds = 50
    checkpoint_metric = "durability.checkpoint_ms"
    marginal_metric = "replication.marginal_us_per_msg"
    checkpoint_every = 1_000

    def build(self, tracer: Optional[Tracer] = None) -> Stack:
        config = ReplicationConfig(
            mode="sync",
            batch_size=REPLICATION_FRAME_BATCH,
            ship_interval=REPLICATION_STEP,
            link_delay=REPLICATION_STEP / 2,
            segment_bytes=SEGMENT_BYTES,
        )
        pair = ReplicatedPair(config, seed=self.inputs.seed)
        journal = pair.journal
        if tracer is not None:
            tracer.trace_journal(journal)
            tracer.wrap(pair, "tick", "replication.tick")
            tracer.wrap(pair.tailer, "poll", "replication.tail_poll")
            tracer.wrap(pair.standby, "receive", "replication.standby_receive")
        queue = pair.primary.queues.create("orders")
        consumer = QueueConsumer("worker")
        queue.attach(consumer)
        build = _traced(tracer, "broker.message_build", Message)
        send = _traced(tracer, "broker.send", queue.send)
        receive = _traced(tracer, "broker.receive", consumer.receive)
        ack = _traced(tracer, "broker.ack", consumer.ack)
        tick, acked_records = pair.tick, pair.acked_records
        now, ticks = 0.0, 0

        def advance() -> None:
            nonlocal now, ticks
            now += REPLICATION_STEP
            ticks += 1
            tick(now)

        def lifecycle(item: tuple) -> Any:
            destination, properties, body, _deadline = item
            message = build(topic=destination, properties=properties, body=body)
            publish_lsn = journal.records_appended
            delivered = send(message, now)
            advance()
            while acked_records(now) <= publish_lsn:  # RPO = 0: wait for the standby
                advance()
            delivery = receive()
            ack(delivery)
            advance()
            return message, delivered, delivery

        def maintain() -> None:
            pair.checkpoint_primary(now)

        def probe() -> ProbeResult:
            sent = _leave_in_flight(
                self.inputs.probe_items, lambda m: queue.send(m, now), consumer
            )
            while acked_records(now) < journal.records_appended:
                advance()
            sync_acked = acked_records(now)
            pair.crash_primary(now)
            later = now + config.lease_duration + REPLICATION_STEP
            start = clock()
            report = pair.maybe_promote(later)
            elapsed = clock() - start
            notes = []
            if report is None or not report.succeeded or report.broker is None:
                return ProbeResult({}, len(sent), len(sent), [f"promotion failed: {report}"])
            if pair.standby.records_applied < sync_acked:
                notes.append(
                    f"standby applied {pair.standby.records_applied} of {sync_acked} acked"
                )
            survivor = QueueConsumer("worker-after-failover")
            report.broker.queues.create("orders").attach(survivor, now=later)
            failed = _restored_mismatch(_drain_all(survivor), sent)
            return ProbeResult(
                {"replication.promote_ms": elapsed}, len(sent), failed + len(notes), notes
            )

        def counts() -> Dict[str, float]:
            messages = self.inputs.messages
            return {
                **_journal_counts([journal], self.inputs),
                "replication.ticks_per_msg": ticks / messages,
                "replication.frames_per_msg": pair.frames_shipped / messages,
                "replication.link_bytes_per_msg": pair.link.bytes_sent / messages,
            }

        return Stack(
            _traced(tracer, ROOT, lifecycle),
            _verify_cycles,
            counts,
            maintain=_traced(tracer, "durability.checkpoint", maintain),
            every=self._period(self.checkpoint_every),
            probe=probe,
        )

    def build_ablation(self) -> Stack:
        """The same cycles on a journaled ``Broker`` with no pair."""
        durable = DurableQueue(self.inputs, self.quick)
        durable.checkpoint_every = self.checkpoint_every
        return durable.build()


# ----------------------------------------------------------------------
# mesh_batch
# ----------------------------------------------------------------------
class MeshBatch(Workload):
    name = "mesh_batch"
    checkpoint_metric = "mesh.checkpoint_ms"
    marginal_metric = "mesh.marginal_us_per_msg"
    checkpoint_every = 250

    def __init__(self, inputs: Inputs, quick: bool = False):
        super().__init__(inputs, quick)
        self._reference: Optional[Dict[tuple, int]] = None

    def _unsharded(self, journal: Optional[Journal] = None, on_message: Any = None) -> Broker:
        """One plain ``Broker`` holding every topic subscription."""
        topics = sorted({topic for _sid, topic, _sel in self.inputs.subscriptions})
        broker = Broker(topics=topics, journal=journal)
        for subscriber_id, topic, selector in self.inputs.subscriptions:
            subscriber = broker.add_subscriber(subscriber_id, on_message=on_message)
            broker.subscribe(subscriber, topic, PropertyFilter(selector))
        return broker

    def reference(self) -> Dict[tuple, int]:
        """Copies per ``(topic, tier, score)`` from a linear-scan broker
        (the shards plan through a ``FilterIndex``)."""
        if self._reference is None:
            broker = self._unsharded()
            self._reference = {}
            for domain, batch in self.inputs.items:
                if domain != "topic":
                    continue
                for topic, properties, _body, _deadline in batch:
                    key = (topic, properties["tier"], properties["score"])
                    if key not in self._reference:
                        plan = broker.dry_run(Message(topic=topic, properties=properties))
                        self._reference[key] = len(plan.matches)
        return self._reference

    def _loop(
        self,
        tracer: Optional[Tracer],
        send_batch: Callable,
        publish_batch: Callable,
        endpoints: Dict[str, tuple],
    ) -> tuple:
        """The batch lifecycle, shared by the mesh and its ablation."""
        now = 0.0

        def build_batch(batch: tuple, at: float) -> List[Message]:
            return [
                Message(
                    topic=destination,
                    properties=properties,
                    body=body,
                    expiration=None if deadline is None else at + deadline,
                )
                for destination, properties, body, deadline in batch
            ]

        def drain(name: str, pickup: float) -> list:
            queue, consumer = endpoints[name]
            queue.reap_expired(pickup)
            receive, ack, deliveries = consumer.receive, consumer.ack, []
            while True:
                delivery = receive()
                if delivery is None:
                    return deliveries
                ack(delivery)
                deliveries.append(delivery)

        build_batch = _traced(tracer, "broker.message_build", build_batch)
        drain = _traced(tracer, "broker.drain", drain)

        def lifecycle(item: tuple) -> Any:
            nonlocal now
            domain, batch = item
            now += MESH_BATCH_INTERVAL
            messages = build_batch(batch, now)
            if domain == "queue":
                name = batch[0][0]
                send_batch(name, messages, now)
                return now, messages, drain(name, now + MESH_PICKUP_DELAY)
            return now, messages, publish_batch(messages, now)

        return _traced(tracer, ROOT, lifecycle), lambda: now

    def build(self, tracer: Optional[Tracer] = None) -> Stack:
        mesh = ShardedBroker(
            MESH_SHARDS,
            sync=SyncPolicy.group_commit(),
            segment_bytes=SEGMENT_BYTES,
            hop_latency=MESH_HOP_LATENCY,
        )
        endpoints: Dict[str, tuple] = {}
        for name in self.inputs.queues:
            queue = mesh.create_queue(name)
            consumer = QueueConsumer(f"worker-{name}")
            mesh.attach_consumer(name, consumer)
            endpoints[name] = (queue, consumer)
        for subscriber_id, topic, selector in self.inputs.subscriptions:
            mesh.subscribe(subscriber_id, topic, PropertyFilter(selector))
        if tracer is not None:
            tracer.wrap(mesh, "send_batch", "mesh.send_batch")
            tracer.wrap(mesh, "publish_batch", "mesh.publish_batch")
            for shard in mesh.shards():
                tracer.trace_journal(shard.journal)
                tracer.wrap(shard.broker, "publish_batch", "broker.publish_batch")
            for queue, _consumer in endpoints.values():
                tracer.wrap(queue, "send_batch", "broker.send_batch")
        lifecycle, virtual_now = self._loop(
            tracer, mesh.send_batch, mesh.publish_batch, endpoints
        )

        def maintain() -> None:
            for shard in mesh.shards():
                shard.journal.checkpoint(
                    collect_live_entries(shard.broker), now=virtual_now()
                )

        def shed_counters() -> List[int]:
            return [
                mesh.expired_on_hop,
                sum(queue.expired_in_flight for queue, _consumer in endpoints.values()),
                mesh.wildcard_deliveries,
            ]

        delivered_late, checked = 0, shed_counters()

        def verify(items: list, outcomes: list) -> int:
            nonlocal delivered_late, checked
            reference, failed = self.reference(), 0
            on_hop = in_flight = late = copies = 0
            for (domain, batch), (at, messages, results) in zip(items, outcomes):
                if domain == "topic":
                    for (topic, properties, _body, _deadline), result in zip(batch, results):
                        wanted = reference[(topic, properties["tier"], properties["score"])]
                        if result is None or result.copies_delivered != wanted:
                            failed += 1
                        copies += wanted
                    continue
                on_hop += sum(1 for m in batch if m[3] == MESH_DEADLINE_ON_HOP[0])
                in_flight += sum(1 for m in batch if m[3] == MESH_DEADLINE_IN_FLIGHT[0])
                expected = [m for m, item in zip(messages, batch) if item[3] is None]
                got = [delivery.message for delivery in results]
                late += sum(1 for m in got if m.expired(at + MESH_PICKUP_DELAY))
                if len(got) != len(expected) or any(a is not b for a, b in zip(got, expected)):
                    failed += 1
            # The product's own shed counters must have moved by exactly
            # what this chunk's deadlines (and topic fan-out) call for.
            before, checked = checked, shed_counters()
            moved = [now - then for now, then in zip(checked, before)]
            delivered_late += late
            return failed + late + sum(
                abs(seen - wanted) for seen, wanted in zip(moved, (on_hop, in_flight, copies))
            )

        def counts() -> Dict[str, float]:
            messages = self.inputs.messages
            per_shard = [
                shard.broker.stats.received
                + sum(queue.enqueued for queue in shard.broker.queues)
                for shard in mesh.shards()
            ]
            return {
                **_journal_counts([shard.journal for shard in mesh.shards()], self.inputs),
                "mesh.shard_skew": max(per_shard) / (sum(per_shard) / len(per_shard)),
                "resilience.expired_on_hop_per_kmsg": 1000 * checked[0] / messages,
                "resilience.expired_in_flight_per_kmsg": 1000 * checked[1] / messages,
                "resilience.delivered_late": float(delivered_late),
            }

        def probe() -> ProbeResult:
            now = virtual_now() + MESH_BATCH_INTERVAL
            sent: Dict[str, List[int]] = {}
            for position, (_domain, batch) in enumerate(self.inputs.probe_items):
                name = batch[0][0]
                messages = [Message(topic=d, properties=p, body=b) for d, p, b, _ in batch]
                mesh.send_batch(name, messages, now)
                sent.setdefault(name, []).extend(m.message_id for m in messages)
                if position % 2 == 0:  # received, never acked
                    consumer = endpoints[name][1]
                    while consumer.receive() is not None:
                        pass
            victim = mesh.owner_id("queue", self.inputs.probe_items[0][1][0][0])
            start = clock()
            mesh.crash_shard(victim, now)
            report = mesh.recover(now)
            elapsed = clock() - start
            notes = []
            if not report.ok:
                notes.append(f"mesh recovery: {report.to_dict()}")
            if not mesh.mesh_ledger().conserved:
                notes.append("mesh ledger not conserved after recovery")
            failed = attempted = 0
            for name, ids in sent.items():
                owners = [s.shard_id for s in mesh.shards() if name in s.broker.queues]
                if len(owners) != 1:
                    notes.append(f"queue {name} is owned by {owners}")
                if owners == [victim]:
                    survivor = QueueConsumer(f"worker-{name}-after-crash")
                    mesh.attach_consumer(name, survivor, now=now)
                    failed += _restored_mismatch(_drain_all(survivor), ids)
                    attempted += len(ids)
            if not mesh.mesh_ledger().conserved:
                notes.append("mesh ledger not conserved after the restored drain")
            return ProbeResult(
                {"mesh.recover_ms": elapsed}, attempted, failed + len(notes), notes
            )

        return Stack(
            lifecycle,
            verify,
            counts,
            maintain=_traced(tracer, "mesh.checkpoint", maintain),
            every=self._period(self.checkpoint_every),
            probe=probe,
        )

    def build_ablation(self) -> Stack:
        """The same batches on one unsharded journaled ``Broker``, no hop."""
        journal = Journal(
            SimulatedDisk(), sync=SyncPolicy.group_commit(), segment_bytes=SEGMENT_BYTES
        )
        received: list = []
        broker = self._unsharded(journal, on_message=received.append)
        broker.install_filter_index()
        endpoints: Dict[str, tuple] = {}
        for name in self.inputs.queues:
            queue = broker.queues.create(name)
            consumer = QueueConsumer(f"worker-{name}")
            queue.attach(consumer)
            endpoints[name] = (queue, consumer)

        def send_batch(name: str, messages: list, now: float) -> int:
            return endpoints[name][0].send_batch(messages, now=now)

        lifecycle, virtual_now = self._loop(None, send_batch, broker.publish_batch, endpoints)

        def maintain() -> None:
            journal.checkpoint(collect_live_entries(broker), now=virtual_now())

        return Stack(
            lifecycle,
            lambda items, outcomes: 0,
            dict,
            maintain=maintain,
            every=self._period(self.checkpoint_every),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (FanoutFiltered, DurableQueue, ReplicatedSync, MeshBatch)
}
