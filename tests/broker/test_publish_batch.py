"""Batched publish: observable equivalence with the sequential loop.

``Broker.publish_batch`` may regroup planning work (one filter pass per
(topic, property-shape) group) and coalesce delivery into contiguous
runs, but nothing *observable* may move: per-subscriber inbox order,
per-message copy counts, retained/dropped/expired verdicts, journal
record counts and the queue-ledger legs must all match what the same
messages produce through a sequential ``publish``/``send`` loop — and a
batch of one must be bit-identical, stats included.
"""

import hashlib
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st

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
from repro.durability import SimulatedDisk, SyncPolicy, scan_disk
from repro.durability.journal import Journal, RecordKind
from repro.rng import RandomStreams

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


def fail_record_of(journal, call, victim):
    """Inject a disk write fault under the append ``journal.<call>``
    makes for ``victim`` — the message of a ``log_publish``, the message
    id of the others — on the instance, the way the benchmark tracer
    wraps the journal."""
    log = getattr(journal, call)

    def faulty(domain, name, subject, *args, **kwargs):
        if subject is victim or subject == victim:
            journal.disk.fail_writes(1)
        return log(domain, name, subject, *args, **kwargs)

    setattr(journal, call, faulty)


def watch_scopes(journal, arm_at=None):
    """Wrap ``journal`` on the instance so that every commit scope is
    remembered with the ``(call, subject)`` of each record logged inside
    it — subject the message of a PUBLISH, else the message id — and a
    disk write fault is armed as scope number ``arm_at`` opens: it fires
    at the exit of the first scope from there on that holds a record.
    Returns the list of ``(scope, logged)`` pairs."""
    seen = []
    for call in ("log_publish", "log_deliver", "log_ack", "log_expire"):
        def spy(domain, name, subject, *args, _call=call, _log=getattr(journal, call), **kwargs):
            seen[-1][1].append((_call, subject))
            return _log(domain, name, subject, *args, **kwargs)

        setattr(journal, call, spy)
    commit = journal.commit

    @contextmanager
    def watched(now=0.0):
        if len(seen) == arm_at:
            journal.disk.fail_writes(1)
        with commit(now) as scope:
            seen.append((scope, []))
            yield scope

    journal.commit = watched
    return seen


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
        # A batch's write-ahead stage is one commit (PR 24): one fsync for
        # its PUBLISH records, where the loop pays one each.
        assert batched.journal.syncs <= sequential.journal.syncs
        assert batched.journal.unsynced_bytes == sequential.journal.unsynced_bytes
        if all(len(batch) == 1 for batch in batches):
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
        arm_at=st.sampled_from([None, 0, 1, 1, 2, 3, 3, 5]),  # odd: an enqueue stage
    )
    @settings(max_examples=200, deadline=None)
    def test_any_partition_matches_send_loop(
        self, assert_conserved, shapes, sizes, policy, capacity, consumer, arm_at
    ):
        """Queue twin of the above: every drop policy on a bounded,
        journaled queue, with a disk write fault armed as one of the
        batches' commit scopes opens.  The fault fires at a scope's exit
        and tears a seeded record of its run, so the record is read off
        the scope and the twin ``send`` loop meets its fault under that
        same record: the fates must then agree."""
        messages = [
            Message(
                topic="q", properties={"quantity": quantity}, expiration=deadline,
                delivery_mode=mode,
            )
            for deadline, mode, quantity in shapes
        ]

        def build():
            broker = Broker(journal=Journal())
            queue = broker.queues.create(
                "work", capacity=capacity, drop_policy=policy, drain_rate=2.0
            )
            if consumer:  # picky: what it rejects waits, and overflows
                picky = QueueConsumer("c0", PropertyFilter("quantity > 1"))
                picky.consumer_id = 0  # DELIVER records carry it
                queue.attach(picky)
            return broker, queue

        now = 5.0
        batched, bat_queue = build()
        scopes = watch_scopes(batched.journal, arm_at)
        batches = split(messages, sizes)
        bat_delivered = 0
        for batch in batches:
            bat_delivered += bat_queue.send_batch(batch, now=now)
            assert_conserved(bat_queue, consumers=bat_queue.consumers, context="send_batch")
            if any(logged for _, logged in scopes):
                # ``always``: whatever a batch committed is below the fsync
                # watermark when the call returns, fault or no fault.
                assert batched.journal.unsynced_bytes == 0
        assert bat_delivered == bat_queue.delivered
        assert len(scopes) == 2 * len(batches)  # accept and enqueue, each one commit
        torn = [logged[position] for scope, logged in scopes for position in scope.torn]
        assert len(torn) == batched.journal.disk.failed_writes <= 1
        event("torn: " + (torn[0][0] if torn else "nothing"))
        assert bat_queue.journal_write_failures == len(torn)
        rejected = [subject for call, subject in torn if call == "log_publish"]
        for doomed in rejected:  # exactly the message whose PUBLISH tore
            assert not bat_queue.has_message(doomed.message_id)
        assert bat_queue.enqueued == sum(not m.expired(now) for m in messages) - len(rejected)

        sequential, seq_queue = build()
        for call, subject in torn:
            fail_record_of(sequential.journal, call, subject)
        for message in messages:
            seq_queue.send(message, now=now)
        assert_conserved(seq_queue, consumers=seq_queue.consumers, context="send loop")
        assert sequential.journal.disk.failed_writes == len(torn)

        counters = lambda queue: {
            name: value for name, value in vars(queue).items() if isinstance(value, int)
        }
        assert counters(seq_queue) == counters(bat_queue)
        assert [m.message_id for m, _ in seq_queue._backlog] == [
            m.message_id for m, _ in bat_queue._backlog
        ]
        assert seq_queue._journaled == bat_queue._journaled
        if consumer:
            seq_inbox, bat_inbox = (
                [d.message.message_id for d in queue.consumers[0].inbox]
                for queue in (seq_queue, bat_queue)
            )
            assert seq_inbox == bat_inbox
        assert sequential.stats.snapshot() == batched.stats.snapshot()
        # The record multiset — but for the torn record itself: how much of
        # it the failed write kept (all of it, one time in its length) is
        # the seeded draw's, not the queue's.
        torn_keys = {
            (
                RecordKind[call.removeprefix("log_").upper()].value,
                subject.message_id if call == "log_publish" else subject,
            )
            for call, subject in torn
        }
        scans = [_records(broker.journal) for broker in (sequential, batched)]
        for broker, records in zip((sequential, batched), scans):
            # Counted where it landed: what a scan finds, this journal wrote.
            assert broker.journal.records_appended == len(records)
        seq_records, bat_records = (
            sorted(
                key
                for key in ((r.kind.value, r.message_id) for r in records)
                if key not in torn_keys
            )
            for records in scans
        )
        assert seq_records == bat_records
        lone_faults = all(len(logged) == 1 for scope, logged in scopes if scope.torn)
        if all(len(batch) == 1 for batch in batches) and lone_faults:
            # A run of one is the scalar append, torn bytes included.
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


# ----------------------------------------------------------------------
# A batch stage is one journal commit (PR 24)
# ----------------------------------------------------------------------
from fault_disks import PrefixFaultDisk  # noqa: E402
from repro.durability.journal import encode_record  # noqa: E402

SYNCS_PER_COMMIT = [
    (SyncPolicy.always(), 1), (SyncPolicy.group_commit(8), 1), (SyncPolicy.never(), 0)
]


def journaled_queue(sync=SyncPolicy.always(), disk=None, consumer=True, **options):
    journal = Journal(disk if disk is not None else SimulatedDisk(RandomStreams(7)), sync=sync)
    queue = Broker(journal=journal).queues.create("work", **options)
    if consumer:
        worker = QueueConsumer("c0")
        worker.consumer_id = 0  # DELIVER records carry it
        queue.attach(worker)
    return journal, queue


def batch_of(count, first=1):
    return [
        Message(topic="work", properties={"n": n}, body=b"x" * (n % 9), message_id=n)
        for n in range(first, first + count)
    ]


class TestBatchIsOneCommit:
    """Exact costs; each count is the parent's per-record cost divided
    by the batch (there: 64 writes and 64 / 8 / 0 fsyncs with a waiting
    consumer, 32 and 32 / 4 / 0 without)."""

    @pytest.mark.parametrize("policy, syncs", SYNCS_PER_COMMIT)
    def test_a_batch_to_a_waiting_consumer_is_two_writes(self, policy, syncs):
        journal, queue = journaled_queue(policy)
        writes, before = journal.disk.writes, journal.syncs
        assert queue.send_batch(batch_of(32), now=1.0) == 32
        assert journal.disk.writes - writes == 2  # the PUBLISH run, the DELIVER run
        assert journal.syncs - before == 2 * syncs
        assert journal.records_appended == 64
        if syncs:
            assert journal.unsynced_bytes == 0
        kinds = [r.kind.name for r in _records(journal)]
        assert kinds == ["PUBLISH"] * 32 + ["DELIVER"] * 32  # write-ahead holds

    @pytest.mark.parametrize("policy, syncs", SYNCS_PER_COMMIT)
    def test_a_batch_nobody_waits_for_is_one_write(self, policy, syncs):
        journal, queue = journaled_queue(policy, consumer=False)
        writes, before = journal.disk.writes, journal.syncs
        assert queue.send_batch(batch_of(32), now=1.0) == 0
        assert (journal.disk.writes - writes, journal.syncs - before) == (1, syncs)
        assert journal.records_appended == 32 and queue.depth == 32

    def test_a_small_batch_rides_the_group_commit_window(self):
        # No buffering outside a scope and no early fsync inside one:
        # b is max(X, batch), so a commit of 3 under batch=8 waits.
        journal, queue = journaled_queue(SyncPolicy.group_commit(8), consumer=False)
        queue.send_batch(batch_of(3), now=1.0)
        assert journal.syncs == 0 and journal.records_appended == 3
        queue.send_batch(batch_of(5, first=4), now=1.0)
        assert journal.syncs == 1 and journal.unsynced_bytes == 0

    def test_terminal_records_of_the_enqueue_stage_ride_the_deliver_run(self):
        # Capacity 2, nobody attached at first: the overflow's ACK-dropped
        # records are one run; then drain-time EXPIREs lead the DELIVERs.
        journal, queue = journaled_queue(
            consumer=False, capacity=2, drop_policy=DropPolicy.DROP_OLDEST
        )
        writes = journal.disk.writes
        stale = [
            Message(topic="work", expiration=2.0, message_id=n) for n in (1, 2, 3, 4)
        ]
        queue.send_batch(stale, now=1.0)
        assert journal.disk.writes - writes == 2
        picky = QueueConsumer("c0", PropertyFilter("n > 0"))  # not the stale ones
        picky.consumer_id = 0
        queue.attach(picky)
        writes = journal.disk.writes
        assert queue.send_batch(batch_of(3, first=5), now=3.0) == 3
        assert journal.disk.writes - writes == 2
        trail = [(r.kind.name, r.message_id) for r in _records(journal)]
        assert trail == [
            ("PUBLISH", 1), ("PUBLISH", 2), ("PUBLISH", 3), ("PUBLISH", 4),
            ("ACK", 1), ("ACK", 2),
            ("PUBLISH", 5), ("PUBLISH", 6), ("PUBLISH", 7),
            ("EXPIRE", 3), ("EXPIRE", 4), ("DELIVER", 5), ("DELIVER", 6), ("DELIVER", 7),
        ]
        queue.closed_ledger().assert_conserved("terminal records in a run")

    def test_exactly_the_message_whose_publish_tore_is_rejected(self, assert_conserved):
        batch = batch_of(5)
        probe, _ = journaled_queue(consumer=False)
        sizes = []
        for message in batch:
            at = probe.disk.length(probe.current_segment)
            probe.log_publish("queue", "work", message, now=1.0)
            sizes.append(probe.disk.length(probe.current_segment) - at)
        for victim in range(5):
            for sliver in (0, 1, sizes[victim] - 1):
                disk = PrefixFaultDisk()
                journal, queue = journaled_queue(disk=disk)
                disk.fail_at(1, keep=sum(sizes[:victim]) + sliver)
                assert queue.send_batch(batch, now=1.0) == 4
                survivors = [m.message_id for m in batch if m is not batch[victim]]
                assert queue.journal_write_failures == 1 and queue.enqueued == 4
                assert not queue.has_message(batch[victim].message_id)
                assert [d.message.message_id for d in queue.consumers[0].inbox] == survivors
                assert sorted(queue._journaled) == survivors
                trail = [(r.kind.name, r.message_id) for r in _records(journal)]
                assert trail == [("PUBLISH", m) for m in survivors] + [
                    ("DELIVER", m) for m in survivors
                ]
                assert journal.records_appended == 8 and journal.unsynced_bytes == 0
                assert_conserved(queue, context=f"PUBLISH of {victim} torn")

    def test_a_torn_deliver_is_counted_and_nothing_else_moves(self, assert_conserved):
        batch = batch_of(5)
        disk = PrefixFaultDisk()
        journal, queue = journaled_queue(disk=disk)
        disk.fail_at(2, keep=70)  # inside the second DELIVER of the second run
        assert queue.send_batch(batch, now=1.0) == 5
        assert queue.journal_write_failures == 1 and queue.enqueued == 5
        delivers = [r.message_id for r in _records(journal) if r.kind is RecordKind.DELIVER]
        assert len(delivers) == 4 and set(delivers) < {m.message_id for m in batch}
        assert journal.records_appended == 9 and journal.unsynced_bytes == 0
        assert_conserved(queue, context="DELIVER torn")

    def test_a_publish_batch_owed_offline_is_one_write(self):
        for policy, syncs in SYNCS_PER_COMMIT:
            journal = Journal(SimulatedDisk(RandomStreams(7)), sync=policy)
            broker = make_broker(durable_offline=True, journal=journal)
            owed = [Message(topic="t", properties={"quantity": 1 + n % 4}) for n in range(12)]
            writes, before = journal.disk.writes, journal.syncs
            result = broker.publish_batch(owed, now=0.0)
            assert (journal.disk.writes - writes, journal.syncs - before) == (1, syncs)
            assert journal.records_appended == 12 == result.copies_retained
            assert [r.message_id for r in _records(journal)] == [m.message_id for m in owed]

    def test_a_torn_write_ahead_is_counted_and_retention_proceeds(self):
        disk = PrefixFaultDisk()
        broker = make_broker(durable_offline=True, journal=Journal(disk))
        owed = [Message(topic="t", properties={"quantity": 3}) for _ in range(6)]
        disk.fail_at(1, keep=300)  # somewhere inside the second PUBLISH
        result = broker.publish_batch(owed, now=0.0)
        assert broker.journal_write_failures == 1
        assert result.copies_retained == 6  # un-journalled, degraded but reported
        retained = next(s for s in broker.subscriptions("t") if s.durable).retained
        assert [m.message_id for m in retained] == [m.message_id for m in owed]
        logged = [r.message_id for r in _records(broker.journal)]
        assert logged == [m.message_id for m in owed if m is not owed[1]]
        assert broker.journal.records_appended == 5 and broker.journal.unsynced_bytes == 0


def scripted_batches_disk():
    """Twelve queue batches on a bounded DROP_OLDEST queue with a picky
    consumer and deadlines: PUBLISH runs, then DELIVERs interleaved with
    ACK-dropped and EXPIRE records, with acks written through between."""
    disk = SimulatedDisk(RandomStreams(7))
    journal = Journal(disk, segment_bytes=2048, sync=SyncPolicy.group_commit(4))
    queue = Broker(journal=journal).queues.create(
        "work", capacity=3, drop_policy=DropPolicy.DROP_OLDEST
    )
    picky = QueueConsumer("c0", PropertyFilter("n > 1"))
    picky.consumer_id = 0  # DELIVER records carry it
    queue.attach(picky)
    for step in range(12):
        now = float(step)
        queue.send_batch(
            [
                Message(
                    topic="work",
                    properties={"n": (step + k) % 4},
                    body=bytes([k]) * (7 * k % 40),
                    expiration=now + 0.5 if k % 3 == 0 else None,
                    delivery_mode=(
                        DeliveryMode.PERSISTENT if k % 5 else DeliveryMode.NON_PERSISTENT
                    ),
                    timestamp=now,
                    message_id=100 * step + k + 1,
                )
                for k in range(8)
            ],
            now=now,
        )
        if step % 2:
            picky.ack(picky.receive())
    return disk


class TestGoldenBatchWal:
    #: Computed at the parent of PR 24 (per-record appends), before the
    #: commit scope existed: a batch lands the bytes it always landed.
    DIGEST = "72717408abac6a9ffff62c5b45c5f01b24de97be3cb1db3f892f94c468e2a657"

    def test_a_fixed_script_of_queue_batches_lands_the_pinned_bytes(self):
        disk = scripted_batches_disk()
        image = b"".join(disk.snapshot()[name] for name in disk.list())
        assert hashlib.sha256(image).hexdigest() == self.DIGEST
        kinds = "".join(r.kind.name[0] for r in scan_disk(disk).records)
        assert {"DA", "AD", "ED", "EA"} <= {kinds[i : i + 2] for i in range(len(kinds))}
        assert disk.writes == 46  # 156 when every record was its own write

