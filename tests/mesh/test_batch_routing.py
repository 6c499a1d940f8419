"""Mesh batch routing: one decision per destination, same observables."""

from hypothesis import given, settings, strategies as st

from repro.broker import DeliveryMode, Message, PropertyFilter, QueueConsumer
from repro.durability.recovery import scan_disk
from repro.mesh.ring import placement_key
from repro.mesh.sharded import ShardedBroker
from repro.overload.health import HealthState

#: Deadlines straddling a 0.5 s hop from ``now=0``: none, dead mid-hop,
#: dead exactly at arrival, alive at arrival.  All alive on a free hop.
DEADLINES = (None, 0.2, 0.5, 0.7)
HOPS = (0.0, 0.5)


def build_mesh(hop_latency=0.0):
    mesh = ShardedBroker(["s0", "s1", "s2"], hop_latency=hop_latency)
    for i in range(6):
        mesh.subscribe(
            f"sub{i}",
            f"orders.t{i % 3}",
            message_filter=PropertyFilter("quantity > 1") if i % 2 else None,
        )
    return mesh


def topic_messages(count):
    return [
        Message(
            topic=f"orders.t{i % 3}",
            body=b"m%d" % i,
            properties={"quantity": i % 5},
            expiration=DEADLINES[i % 4],
        )
        for i in range(count)
    ]


def inbox_log(mesh):
    out = {}
    for shard in mesh.shards():
        for topic in shard.broker.topics:
            for sub in shard.broker.subscriptions(topic.name):
                out.setdefault(sub.subscriber.subscriber_id, []).extend(
                    d.message.body for d in sub.subscriber.inbox
                )
    return out


def copies(results):
    return [None if r is None else r.copies_delivered for r in results]


def routing_counters(mesh):
    return {
        name: getattr(mesh, name)
        for name in (
            "routed_sends",
            "routed_publishes",
            "expired_on_hop",
            "shed_unavailable",
            "deferred_migrating",
        )
    }


def split(items, sizes):
    """Consecutive batches of the drawn sizes; the last takes the rest."""
    batches, start = [], 0
    for size in sizes:
        if start >= len(items):
            break
        batches.append(items[start : start + size])
        start += size
    if start < len(items):
        batches.append(items[start:])
    return batches


#: b=1 throughout, the whole sequence at once, or any mix in between.
partition_sizes = st.one_of(
    st.just([1] * 16), st.lists(st.integers(min_value=1, max_value=6), max_size=8)
)


class TestPublishBatch:
    def test_matches_sequential_routing(self):
        for hop_latency in HOPS:
            messages = topic_messages(24)
            sequential, batched = build_mesh(hop_latency), build_mesh(hop_latency)
            seq_results = [sequential.publish(m, now=0.0) for m in messages]
            bat_results = batched.publish_batch(messages, now=0.0)
            assert len(bat_results) == len(messages)
            assert inbox_log(sequential) == inbox_log(batched)
            assert copies(seq_results) == copies(bat_results)
            assert sequential.routed_publishes == batched.routed_publishes == 24
            # i % 4 in (1, 2) is dead on arrival after a 0.5 s hop.
            dead = 12 if hop_latency else 0
            assert copies(bat_results).count(None) == dead
            assert sequential.expired_on_hop == batched.expired_on_hop == dead

    def test_survivors_are_dispatched_at_arrival(self):
        """All four entry points hand the owner ``now = arrival``."""
        mesh = build_mesh(hop_latency=0.5)
        mesh.create_queue("work")
        seen = []

        def recording(method):
            def wrapper(*args, now=0.0):
                seen.append(now)
                return method(*args, now=now)

            return wrapper

        for shard in mesh.shards():
            shard.broker.publish = recording(shard.broker.publish)
            shard.broker.publish_batch = recording(shard.broker.publish_batch)
        queue = mesh.queue("work")
        queue.send = recording(queue.send)
        queue.send_batch = recording(queue.send_batch)
        alive = dict(expiration=2.0)
        mesh.publish(Message(topic="orders.t0", **alive), now=1.0)
        mesh.publish_batch([Message(topic="orders.t0", **alive)], now=1.0)
        mesh.send("work", Message(topic="q", **alive), now=1.0)
        mesh.send_batch("work", [Message(topic="q", **alive)], now=1.0)
        assert seen == [1.5, 1.5, 1.5, 1.5]

    def test_dead_on_arrival_is_shed_by_all_four_entry_points(self):
        mesh = build_mesh(hop_latency=0.5)
        mesh.create_queue("work")
        dead = dict(expiration=0.2)
        assert mesh.publish(Message(topic="orders.t0", **dead), now=0.0) is None
        assert mesh.publish_batch([Message(topic="orders.t0", **dead)], now=0.0) == [None]
        assert mesh.send("work", Message(topic="q", **dead), now=0.0) is False
        assert mesh.send_batch("work", [Message(topic="q", **dead)], now=0.0) == 0
        assert mesh.expired_on_hop == 4
        assert mesh.routed_publishes == mesh.routed_sends == 2
        assert mesh.queue("work").enqueued == 0
        assert inbox_log(mesh) == {f"sub{i}": [] for i in range(6)}

    def test_unavailable_owner_refuses_whole_slice(self):
        messages = topic_messages(12)
        mesh = build_mesh()
        owner = mesh.owner_id("topic", "orders.t0")
        mesh.set_health(owner, HealthState.SHEDDING)
        results = mesh.publish_batch(messages, now=0.0)
        refused = [i for i, r in enumerate(results) if r is None]
        assert refused == [
            i
            for i, m in enumerate(messages)
            if mesh.owner_id("topic", m.topic) == owner
        ]
        assert refused  # the shedding owner holds at least orders.t0
        assert mesh.shed_unavailable == len(refused)
        assert mesh.routed_publishes == len(messages) - len(refused)

    def test_empty_batch_is_a_no_op(self):
        mesh = build_mesh()
        assert mesh.publish_batch([], now=0.0) == []
        assert mesh.routed_publishes == 0


class TestSendBatch:
    def test_matches_sequential_sends(self):
        for hop_latency in HOPS:
            messages = [
                Message(
                    topic="q",
                    body=b"q%d" % i,
                    delivery_mode=DeliveryMode.PERSISTENT,
                    expiration=DEADLINES[i % 4],
                )
                for i in range(10)
            ]
            sequential, batched = build_mesh(hop_latency), build_mesh(hop_latency)
            for m in messages:
                sequential.send("work", m, now=0.0)
            batched.send_batch("work", messages, now=0.0)
            seq_q = sequential.owner_shard("queue", "work").broker.queues.create("work")
            bat_q = batched.owner_shard("queue", "work").broker.queues.create("work")
            dead = 5 if hop_latency else 0  # i % 4 in (1, 2)
            assert sequential.expired_on_hop == batched.expired_on_hop == dead
            assert seq_q.depth == bat_q.depth == 10 - dead
            assert sequential.routed_sends == batched.routed_sends == 10
            assert sequential.mesh_ledger().conserved
            assert batched.mesh_ledger().conserved

    def test_migrating_queue_defers_per_message(self):
        mesh = build_mesh()
        mesh.create_queue("work")
        mesh.membership.table.begin_migration([placement_key("queue", "work")])
        delivered = mesh.send_batch(
            "work", [Message(topic="q", body=b"x")] * 4, now=0.0
        )
        assert delivered == 0
        assert mesh.deferred_migrating == 4

    def test_unavailable_owner_sheds_per_message(self):
        mesh = build_mesh()
        mesh.create_queue("work")
        owner = mesh.owner_id("queue", "work")
        mesh.set_health(owner, HealthState.SHEDDING)
        delivered = mesh.send_batch(
            "work", [Message(topic="q", body=b"x")] * 3, now=0.0
        )
        assert delivered == 0
        assert mesh.shed_unavailable == 3


def degrade(mesh, domain, shedding, migrating):
    """Take one destination's owner out and put another mid-handoff."""
    if shedding is not None:
        mesh.set_health(mesh.owner_id(domain, shedding), HealthState.SHEDDING)
    if migrating is not None:
        mesh.membership.table.begin_migration([placement_key(domain, migrating)])


LEDGER_LEGS = (
    "received", "dispatched", "expired", "retained", "dropped_offline", "inbox_dropped"
)


def shard_state(mesh, amortized=False):
    """Everything the shards hold: WAL bytes and the brokers' ledgers.

    Batches of more than one move what they amortize or reorder, and
    nothing else: the stats keep their conservation legs, the WAL keeps
    its records (a batch writes its PUBLISHes back to back, ahead of
    the DELIVER and drop records a loop interleaves with them)."""
    state = {}
    for shard in mesh.shards():
        stats = shard.broker.stats.snapshot()
        wal = shard.disk.snapshot()
        if amortized:
            stats = {leg: stats[leg] for leg in LEDGER_LEGS}
            shard.journal.sync()
            records = scan_disk(shard.disk, shard.journal.name).records
            wal = sorted((r.kind.value, r.message_id) for r in records)
        state[shard.shard_id] = (wal, stats)
    return state


TOPICS = ("orders.t0", "orders.t1", "orders.t2")
QUEUES = ("work", "jobs")


class TestRoutingEquivalence:
    """Property suite run by the check_static equivalence gate: any split
    of a message sequence into consecutive batches leaves the mesh in the
    state the scalar loop leaves it in."""

    @given(
        shapes=st.lists(
            st.tuples(
                st.sampled_from(TOPICS),
                st.integers(min_value=0, max_value=4),
                st.sampled_from(DEADLINES),
            ),
            max_size=16,
        ),
        sizes=partition_sizes,
        hop_latency=st.sampled_from(HOPS),
        shedding=st.sampled_from([None, *TOPICS]),
        migrating=st.sampled_from([None, *TOPICS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_publish_partition_matches_publish_loop(
        self, shapes, sizes, hop_latency, shedding, migrating
    ):
        messages = [
            Message(topic=topic, properties={"quantity": quantity}, expiration=deadline)
            for topic, quantity, deadline in shapes
        ]
        sequential, batched = build_mesh(hop_latency), build_mesh(hop_latency)
        for mesh in (sequential, batched):
            degrade(mesh, "topic", shedding, migrating)
        seq_results = [sequential.publish(m, now=0.0) for m in messages]
        batches = split(messages, sizes)
        bat_results = []
        for batch in batches:
            bat_results.extend(batched.publish_batch(batch, now=0.0))
        assert copies(seq_results) == copies(bat_results)
        assert inbox_log(sequential) == inbox_log(batched)
        assert routing_counters(sequential) == routing_counters(batched)
        amortized = any(len(batch) > 1 for batch in batches)
        assert shard_state(sequential, amortized) == shard_state(batched, amortized)

    @given(
        shapes=st.lists(
            st.tuples(st.sampled_from(DEADLINES), st.sampled_from(list(DeliveryMode))),
            max_size=16,
        ),
        sizes=partition_sizes,
        hop_latency=st.sampled_from(HOPS),
        name=st.sampled_from(QUEUES),
        shedding=st.sampled_from([None, *QUEUES]),
        migrating=st.sampled_from([None, *QUEUES]),
        consumer=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_send_partition_matches_send_loop(
        self, assert_conserved, shapes, sizes, hop_latency, name, shedding, migrating, consumer
    ):
        messages = [
            Message(topic="q", expiration=deadline, delivery_mode=mode)
            for deadline, mode in shapes
        ]
        sequential, batched = build_mesh(hop_latency), build_mesh(hop_latency)
        inboxes = []
        for mesh in (sequential, batched):
            for queue_name in QUEUES:
                mesh.create_queue(queue_name, capacity=5)
            if consumer:
                inboxes.append(QueueConsumer("c0"))
                inboxes[-1].consumer_id = 0  # DELIVER records carry it
                mesh.attach_consumer(name, inboxes[-1])
            degrade(mesh, "queue", shedding, migrating)
        for message in messages:
            sequential.send(name, message, now=0.0)
        batches = split(messages, sizes)
        bat_delivered = 0
        for batch in batches:
            bat_delivered += batched.send_batch(name, batch, now=0.0)
            assert_conserved(batched.mesh_ledger(), context="after send_batch")
        assert bat_delivered == batched.mesh_ledger().in_flight
        assert routing_counters(sequential) == routing_counters(batched)
        assert sequential.mesh_ledger() == batched.mesh_ledger()
        assert [m.message_id for m, _ in sequential.queue(name)._backlog] == [
            m.message_id for m, _ in batched.queue(name)._backlog
        ]
        if consumer:
            seq_inbox, bat_inbox = (
                [d.message.message_id for d in c.inbox] for c in inboxes
            )
            assert seq_inbox == bat_inbox
        amortized = any(len(batch) > 1 for batch in batches)
        assert shard_state(sequential, amortized) == shard_state(batched, amortized)
