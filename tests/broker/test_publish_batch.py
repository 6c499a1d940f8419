"""Batched publish: observable equivalence with the sequential loop.

``Broker.publish_batch`` may regroup planning work (one filter pass per
(topic, property-shape) group) and coalesce delivery into contiguous
runs, but nothing *observable* may move: per-subscriber inbox order,
per-message copy counts, retained/dropped/expired verdicts, journal
record counts and the queue-ledger legs must all match what the same
messages produce through a sequential ``publish``/``send`` loop — and a
batch of one must be bit-identical, stats included.
"""

from hypothesis import given, settings, strategies as st

from repro.broker import (
    Broker,
    CorrelationIdFilter,
    DeliveryMode,
    DropPolicy,
    Message,
    PropertyFilter,
    QueueConsumer,
)
from repro.broker.dispatch_cache import message_fingerprint
from repro.durability.journal import Journal

SELECTORS = (
    "quantity > 2",
    "quantity <= 2",
    "region = 'EU'",
    "region = 'EU' AND quantity > 1",
    "price IS NULL",
)


def make_broker(
    topic="t", durable_offline=False, journal=None, memo=False, index=False, bounded_log=None
):
    broker = Broker(topics=[topic], journal=journal)
    if bounded_log is not None:  # a slow consumer: bounded inbox, with a callback
        broker.add_subscriber("b0", on_message=bounded_log.append, inbox_capacity=2)
        broker.subscribe("b0", topic)
    for i, text in enumerate(SELECTORS):
        broker.add_subscriber(f"s{i}")
        broker.subscribe(f"s{i}", topic, PropertyFilter(text))
    broker.add_subscriber("cid")
    broker.subscribe("cid", topic, CorrelationIdFilter("want"))
    if durable_offline:
        broker.add_subscriber("d0")
        broker.subscribe("d0", topic, PropertyFilter("quantity > 0"), durable=True)
        broker.disconnect("d0")
    if index:
        broker.install_filter_index()
    if memo:
        broker.install_dispatch_memo()
    return broker


def _records(journal):
    """Every intact record on the journal's disk, in log order."""
    from repro.durability.recovery import scan_disk

    journal.sync()
    return scan_disk(journal.disk, journal.name).records


def inbox_log(broker, topic="t"):
    """Per-subscriber delivered message ids, in inbox order."""
    return {
        sub.subscriber.subscriber_id: [
            d.message.message_id for d in sub.subscriber.inbox
        ]
        for sub in broker.subscriptions(topic)
    }


message_strategy = st.builds(
    Message,
    topic=st.just("t"),
    correlation_id=st.sampled_from([None, "want", "other"]),
    properties=st.fixed_dictionaries(
        {},
        optional={
            "quantity": st.integers(min_value=0, max_value=4),
            "region": st.sampled_from(["EU", "US"]),
            "price": st.floats(allow_nan=False, allow_infinity=False, width=16),
        },
    ),
    expiration=st.sampled_from([None, 3.0, 10.0]),  # tests publish at now=5
    delivery_mode=st.sampled_from(list(DeliveryMode)),
)

#: b=1 throughout, the whole sequence at once, or any mix in between.
partition_sizes = st.one_of(
    st.just([1] * 12), st.lists(st.integers(min_value=1, max_value=5), max_size=6)
)


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


#: The conservation legs of ``BrokerStats`` — never amortized by batching.
LEDGER_LEGS = (
    "received", "dispatched", "expired", "retained", "dropped_offline", "inbox_dropped"
)


def fail_publish_of(journal, victim):
    """Inject a disk write fault under ``victim``'s PUBLISH append — on
    the instance, the way the benchmark tracer wraps the journal."""
    log_publish = journal.log_publish

    def faulty(domain, name, message, **kwargs):
        if message is victim:
            journal.disk.fail_writes(1)
        return log_publish(domain, name, message, **kwargs)

    journal.log_publish = faulty


class TestBatchPublishEquivalence:
    """Property suite run by the check_static equivalence gate."""

    @given(st.lists(message_strategy, min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_delivery_matches_sequential_loop(self, messages):
        sequential = make_broker(durable_offline=True)
        batched = make_broker(durable_offline=True)
        now = 5.0
        seq_results = [sequential.publish(m, now=now) for m in messages]
        batch = batched.publish_batch(messages, now=now)
        assert len(batch) == len(messages)
        assert inbox_log(sequential) == inbox_log(batched)
        for seq, bat in zip(seq_results, batch.results):
            assert seq.copies_delivered == bat.copies_delivered
            assert seq.copies_retained == bat.copies_retained
            assert seq.copies_dropped == bat.copies_dropped
            assert seq.expired == bat.expired
        for sub in batched.subscriptions("t"):
            if sub.durable:
                twin = next(
                    s
                    for s in sequential.subscriptions("t")
                    if s.subscriber.subscriber_id == sub.subscriber.subscriber_id
                )
                assert [m.message_id for m in sub.retained] == [
                    m.message_id for m in twin.retained
                ]

    @given(st.lists(message_strategy, min_size=0, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_warm_memo_delivery_matches(self, messages):
        sequential = make_broker(memo=True)
        batched = make_broker(memo=True)
        for broker in (sequential, batched):
            broker.publish_batch(messages, now=5.0)  # prime
        for m in messages:
            sequential.publish(m, now=5.0)
        batched.publish_batch(messages, now=5.0)
        assert inbox_log(sequential) == inbox_log(batched)

    @given(message_strategy)
    @settings(max_examples=40, deadline=None)
    def test_batch_of_one_is_bit_identical(self, message):
        sequential = make_broker(durable_offline=True)
        batched = make_broker(durable_offline=True)
        seq = sequential.publish(message, now=5.0)
        bat = batched.publish_batch([message], now=5.0)
        assert len(bat.results) == 1
        assert seq.filters_evaluated == bat.results[0].filters_evaluated
        assert sequential.stats.snapshot() == batched.stats.snapshot()


    @given(
        messages=st.lists(message_strategy, min_size=0, max_size=12),
        sizes=partition_sizes,
        memo=st.booleans(),
        index=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_partition_matches_publish_loop(self, messages, sizes, memo, index):
        """Batches of any sizes — one included — leave the scalar loop's
        state; only the amortized counters move, and only by their rule."""
        logs = [], []
        sequential, batched = (
            make_broker(
                durable_offline=True, journal=Journal(), memo=memo, index=index, bounded_log=log
            )
            for log in logs
        )
        now = 5.0
        seq_results = [sequential.publish(m, now=now) for m in messages]
        batches = split(messages, sizes)
        outcomes = [batched.publish_batch(batch, now=now) for batch in batches]
        bat_results = [result for outcome in outcomes for result in outcome.results]

        # -- what no batching may move ---------------------------------
        assert inbox_log(sequential) == inbox_log(batched)
        assert [d.message.message_id for d in logs[0]] == [
            d.message.message_id for d in logs[1]
        ]
        fates = lambda r: (r.copies_delivered, r.copies_retained, r.copies_dropped, r.expired)
        assert [fates(r) for r in seq_results] == [fates(r) for r in bat_results]
        retained = lambda broker: {
            sub.subscriber.subscriber_id: [m.message_id for m in sub.retained]
            for sub in broker.subscriptions("t")
        }
        assert retained(sequential) == retained(batched)
        seq_stats, bat_stats = sequential.stats.snapshot(), batched.stats.snapshot()
        for leg in LEDGER_LEGS:
            assert seq_stats[leg] == bat_stats[leg], leg
        assert sequential.stats.per_topic_received == batched.stats.per_topic_received
        assert sequential.stats.per_topic_dispatched == batched.stats.per_topic_dispatched
        assert sequential.journal.disk.snapshot() == batched.journal.disk.snapshot()
        assert sequential.journal.syncs == batched.journal.syncs

        # -- what batching amortizes, by its rule ----------------------
        seq_memo, bat_memo = sequential.dispatch_memo("t"), batched.dispatch_memo("t")
        if all(len(batch) == 1 for batch in batches):
            assert seq_stats == bat_stats
            assert [r.filters_evaluated for r in seq_results] == [
                r.filters_evaluated for r in bat_results
            ]
            if seq_memo is not None:
                assert (seq_memo.hits, seq_memo.misses) == (bat_memo.hits, bat_memo.misses)
            return
        cold_bill = make_broker(durable_offline=True, index=index).dry_run
        groups = warm = batch_hits = batch_messages = 0
        for batch, outcome in zip(batches, outcomes):
            members = {}
            for message, result in zip(batch, outcome.results):
                if not result.expired:
                    members.setdefault(message_fingerprint(message), []).append(result)
            assert outcome.groups == len(members)
            groups += len(members)
            for (first, *rest) in members.values():
                # one bill per group, on its first message; none when warm
                assert all(r.filters_evaluated == 0 for r in rest)
                if first.filters_evaluated == 0:
                    warm += 1
                    if rest:
                        batch_hits += 1
                        batch_messages += 1 + len(rest)
                else:
                    assert first.filters_evaluated == cold_bill(first.message).filters_evaluated
            assert outcome.warm_groups == sum(
                1 for first, *_ in members.values() if first.filters_evaluated == 0
            )
        assert warm == 0 or memo
        assert (bat_stats["batch_hits"], bat_stats["batch_messages"]) == (
            batch_hits, batch_messages
        )
        if bat_memo is not None:  # one probe per group, not per message
            assert bat_memo.hits == warm
            assert bat_memo.hits + bat_memo.misses == groups

    @given(
        shapes=st.lists(
            st.tuples(
                st.sampled_from([None, 3.0, 5.5, 10.0]),
                st.sampled_from(list(DeliveryMode)),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=12,
        ),
        sizes=partition_sizes,
        policy=st.sampled_from(
            [DropPolicy.DROP_NEW, DropPolicy.DROP_OLDEST, DropPolicy.DEADLINE_SHED]
        ),
        capacity=st.integers(min_value=1, max_value=4),
        consumer=st.booleans(),
        victim=st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_partition_matches_send_loop(
        self, assert_conserved, shapes, sizes, policy, capacity, consumer, victim
    ):
        """Queue twin of the above: every drop policy on a bounded,
        journaled queue, with a write fault under one message's PUBLISH."""
        messages = [
            Message(
                topic="q", properties={"quantity": quantity}, expiration=deadline,
                delivery_mode=mode,
            )
            for deadline, mode, quantity in shapes
        ]
        brokers, queues, consumers = [], [], []
        for _ in range(2):
            broker = Broker(journal=Journal())
            queue = broker.queues.create(
                "work", capacity=capacity, drop_policy=policy, drain_rate=2.0
            )
            if consumer:  # picky: what it rejects waits, and overflows
                picky = QueueConsumer("c0", PropertyFilter("quantity > 1"))
                picky.consumer_id = 0  # DELIVER records carry it
                queue.attach(picky)
                consumers.append(picky)
            if victim is not None and victim < len(messages):
                fail_publish_of(broker.journal, messages[victim])
            brokers.append(broker)
            queues.append(queue)
        (sequential, batched), (seq_queue, bat_queue) = brokers, queues
        now = 5.0
        for message in messages:
            seq_queue.send(message, now=now)
        batches = split(messages, sizes)
        bat_delivered = 0
        for batch in batches:
            bat_delivered += bat_queue.send_batch(batch, now=now)
            assert_conserved(bat_queue, consumers=bat_queue.consumers, context="send_batch")
        assert_conserved(seq_queue, consumers=seq_queue.consumers, context="send loop")
        assert bat_delivered == bat_queue.delivered
        if victim is not None and victim < len(messages):
            doomed = messages[victim]  # rejected iff its PUBLISH was attempted
            attempted = doomed.delivery_mode is DeliveryMode.PERSISTENT and not doomed.expired(now)
            assert bat_queue.journal_write_failures == int(attempted)
            assert not (attempted and bat_queue.has_message(doomed.message_id))
        counters = lambda queue: {
            name: value for name, value in vars(queue).items() if isinstance(value, int)
        }
        assert counters(seq_queue) == counters(bat_queue)
        assert [m.message_id for m, _ in seq_queue._backlog] == [
            m.message_id for m, _ in bat_queue._backlog
        ]
        assert seq_queue._journaled == bat_queue._journaled
        if consumer:
            seq_inbox, bat_inbox = ([d.message.message_id for d in c.inbox] for c in consumers)
            assert seq_inbox == bat_inbox
        assert sequential.stats.snapshot() == batched.stats.snapshot()
        seq_records, bat_records = (
            sorted((r.kind.value, r.message_id) for r in _records(b.journal)) for b in brokers
        )
        assert seq_records == bat_records
        if all(len(batch) == 1 for batch in batches):
            assert sequential.journal.disk.snapshot() == batched.journal.disk.snapshot()


class TestBatchAccounting:
    def test_cold_group_bills_filters_once(self):
        broker = make_broker()
        same = [Message(topic="t", properties={"quantity": 3}) for _ in range(4)]
        batch = broker.publish_batch(same, now=0.0)
        bills = [r.filters_evaluated for r in batch.results]
        assert bills[0] > 0
        assert bills[1:] == [0, 0, 0]
        assert batch.groups == 1

    def test_warm_group_counts_one_batch_hit(self):
        broker = make_broker(memo=True)
        same = [Message(topic="t", properties={"quantity": 3}) for _ in range(4)]
        broker.publish_batch(same, now=0.0)
        assert broker.stats.batch_hits == 0
        batch = broker.publish_batch(same, now=0.0)
        assert batch.warm_groups == 1
        assert broker.stats.batch_hits == 1
        assert broker.stats.batch_messages == 4
        assert all(r.filters_evaluated == 0 for r in batch.results)

    def test_unknown_topic_raises_like_scalar(self):
        broker = make_broker()
        broker.topics.freeze()
        good = Message(topic="t")
        bad = Message(topic="nope")
        try:
            broker.publish_batch([good, bad], now=0.0)
        except Exception as batch_error:
            try:
                broker.publish(bad, now=0.0)
            except Exception as scalar_error:
                assert type(batch_error) is type(scalar_error)
            else:  # pragma: no cover - defensive
                raise AssertionError("scalar publish accepted unknown topic")
        else:  # pragma: no cover - defensive
            raise AssertionError("publish_batch accepted unknown topic")

    def test_journal_records_match_sequential(self):
        seq_journal, bat_journal = Journal(), Journal()
        sequential = make_broker(durable_offline=True, journal=seq_journal)
        batched = make_broker(durable_offline=True, journal=bat_journal)
        messages = [
            Message(
                topic="t",
                properties={"quantity": i % 4},
                delivery_mode=(
                    DeliveryMode.PERSISTENT if i % 3 else DeliveryMode.NON_PERSISTENT
                ),
            )
            for i in range(9)
        ]
        for m in messages:
            sequential.publish(m, now=0.0)
        batched.publish_batch(messages, now=0.0)
        assert seq_journal.records_appended == bat_journal.records_appended
        assert batched.journal_write_failures == 0


class TestSendBatch:
    def test_bounded_queue_matches_sequential(self, assert_conserved):
        def build():
            broker = Broker()
            queue = broker.queues.create("work", capacity=5)
            return broker, queue

        messages = [
            Message(topic="q", body=b"x" * (i % 3), expiration=2.0 if i % 4 == 0 else None)
            for i in range(12)
        ]
        seq_broker, seq_queue = build()
        bat_broker, bat_queue = build()
        for m in messages:
            seq_queue.send(m, now=1.0)
        bat_queue.send_batch(messages, now=1.0)
        for name in ("enqueued", "depth", "dropped_new", "dropped_oldest"):
            assert getattr(seq_queue, name, None) == getattr(bat_queue, name, None)
        assert seq_broker.stats.snapshot() == bat_broker.stats.snapshot()
        assert_conserved(bat_queue, consumers=bat_queue.consumers, context="send_batch")
        assert_conserved(seq_queue, consumers=seq_queue.consumers, context="send loop")

    def test_drains_to_attached_consumer(self):
        from repro.broker import QueueConsumer

        broker = Broker()
        queue = broker.queues.create("work")
        queue.attach(QueueConsumer("c0"))
        delivered = queue.send_batch(
            [Message(topic="q", body=b"%d" % i) for i in range(6)], now=0.0
        )
        assert delivered == 6
