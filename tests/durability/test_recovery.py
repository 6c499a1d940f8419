"""Crash recovery: repair classification and exactly-once replay."""

import pytest

from repro.broker import Broker
from repro.broker.message import Message
from repro.broker.queues import QueueConsumer
from repro.durability import (
    Journal,
    JournalWriteError,
    SimulatedDisk,
    SyncPolicy,
    recover_broker,
    scan_disk,
)
from repro.durability.journal import MAX_RECORD_BYTES
from repro.rng import RandomStreams


def fresh(disk=None, sync=None, attach=True, **queue_kwargs):
    """A journal-backed broker with one queue (and, by default, a consumer).

    With a consumer attached, every ``send`` drains immediately, so each
    persistent send journals PUBLISH + DELIVER; ``attach=False`` keeps
    sends in the backlog (PUBLISH only) for byte-precise repair tests.
    """
    journal = Journal(
        disk if disk is not None else SimulatedDisk(RandomStreams(0)),
        sync=sync if sync is not None else SyncPolicy.always(),
        segment_bytes=1024,
    )
    broker = Broker(journal=journal)
    queue = broker.queues.create("q", **queue_kwargs)
    consumer = QueueConsumer("c")
    if attach:
        queue.attach(consumer)
    return broker, journal, queue, consumer


def reborn(journal, **kwargs):
    """A fresh broker over the (crashed) disk image of ``journal``."""
    disk = SimulatedDisk.from_snapshot(journal.disk.snapshot())
    return fresh(disk=disk, **kwargs)


def backlog_ids(queue):
    return {message.message_id for message, _redelivered in queue._backlog}


class TestCleanRecovery:
    def test_empty_journal_recovers_clean(self):
        broker, _journal, _queue, _consumer = fresh()
        broker.recover(reconnect_subscribers=False)
        report = broker.last_recovery
        assert report.clean
        assert report.requeued == 0

    def test_unacked_messages_requeue_exactly_once(self):
        broker, journal, queue, consumer = fresh()
        for i in range(3):
            queue.send(Message(topic="q", properties={"n": i}), now=0.0)
        delivery = consumer.receive()
        consumer.ack(delivery)  # terminal: must NOT come back

        broker2, _j2, queue2, _c2 = reborn(journal, attach=False)
        broker2.recover(reconnect_subscribers=False, now=1.0)
        report = broker2.last_recovery
        assert report.errors == []
        assert report.requeued == 2
        assert queue2.depth == 2
        assert queue2.restored == 2
        assert delivery.message.message_id not in backlog_ids(queue2)

    def test_recovery_is_idempotent_no_new_records(self):
        broker, journal, queue, _consumer = fresh()
        queue.send(Message(topic="q"), now=0.0)
        broker2, journal2, _q2, _c2 = reborn(journal)
        before = journal2.records_appended
        broker2.recover(reconnect_subscribers=False, now=1.0)
        assert journal2.records_appended == before


class TestRedelivery:
    def test_in_flight_copy_comes_back_flagged(self):
        broker, journal, queue, consumer = fresh()
        queue.send(Message(topic="q"), now=0.0)
        consumer.receive()  # delivered, never acked

        broker2, _j2, queue2, consumer2 = reborn(journal, attach=False)
        broker2.recover(reconnect_subscribers=False, now=1.0)
        assert broker2.last_recovery.redelivered_flagged == 1
        queue2.attach(consumer2, now=1.0)  # the reconnect triggers the drain
        redelivery = consumer2.receive()
        assert redelivery is not None
        assert redelivery.message.redelivered

    def test_exhausted_budget_dead_letters_at_recovery(self):
        broker, journal, queue, consumer = fresh(max_redeliveries=1)
        queue.send(Message(topic="q"), now=0.0)
        # two delivered-but-unacked cycles burn the whole budget
        consumer.receive()
        queue.detach(consumer, now=0.1)
        queue.attach(consumer, now=0.1)
        consumer.receive()

        broker2, _j2, queue2, _c2 = reborn(journal, max_redeliveries=1)
        broker2.recover(reconnect_subscribers=False, now=1.0)
        report = broker2.last_recovery
        assert report.dead_lettered_on_recovery == 1
        assert report.requeued == 0
        assert queue2.depth == 0
        assert len(queue2.dead_letters) == 1


class TestDowntimeExpiry:
    def test_ttl_elapsed_while_down_expires_not_delivers(self):
        broker, journal, queue, _consumer = fresh()
        queue.send(Message(topic="q", expiration=5.0), now=0.0)
        queue.send(Message(topic="q"), now=0.0)

        broker2, _j2, queue2, _c2 = reborn(journal)
        broker2.recover(reconnect_subscribers=False, now=10.0)  # past the TTL
        report = broker2.last_recovery
        assert report.expired_during_downtime == 1
        assert report.requeued == 1
        assert queue2.depth == 1


class TestRepairs:
    def test_torn_tail_truncated_and_recovery_proceeds(self):
        broker, journal, queue, _consumer = fresh(sync=SyncPolicy.never(), attach=False)
        for i in range(4):
            queue.send(Message(topic="q", properties={"n": i}), now=0.0)
        journal.sync()
        queue.send(Message(topic="q", properties={"n": 99}), now=0.0)
        # a power cut mid-write: the final record loses its last 3 bytes
        segment = journal.current_segment
        journal.disk.truncate(segment, journal.disk.length(segment) - 3)

        broker2, _j2, queue2, _c2 = reborn(
            journal, sync=SyncPolicy.never(), attach=False
        )
        broker2.recover(reconnect_subscribers=False, now=1.0)  # must not raise
        report = broker2.last_recovery
        assert report.torn_tail is not None
        assert report.errors == []
        assert report.requeued == 4
        assert queue2.depth == 4

    def test_mid_log_corruption_quarantined_history_after_survives(self):
        broker, journal, queue, _consumer = fresh(attach=False)
        for i in range(5):
            queue.send(Message(topic="q", properties={"n": i}), now=0.0)
        # flip a bit inside the second record's body
        second = journal.record_locations[1]
        journal.disk.corrupt(second.segment, offset=second.offset + 10, bits=1)

        broker2, _j2, queue2, _c2 = reborn(journal, attach=False)
        broker2.recover(reconnect_subscribers=False, now=1.0)  # must not raise
        report = broker2.last_recovery
        assert len(report.quarantined) == 1
        assert "corrupt" in report.quarantined[0].reason
        assert report.errors == []
        # the records before and after the quarantined range all replay
        assert report.requeued == 4
        assert queue2.depth == 4

    def test_scan_truncates_torn_tail_in_place(self):
        journal = Journal(SimulatedDisk(RandomStreams(0)), sync=SyncPolicy.never())
        journal.log_publish("queue", "q", Message(topic="q"))
        journal.log_publish("queue", "q", Message(topic="q"))
        segment = journal.current_segment
        journal.disk.truncate(segment, journal.disk.length(segment) - 3)
        scan = scan_disk(journal.disk, journal.name)
        assert scan.torn_tail is not None
        assert scan.torn_tail.bytes_discarded > 0
        assert len(scan.records) == 1
        # after the repair the segment ends exactly at the last good record
        again = scan_disk(journal.disk, journal.name)
        assert again.torn_tail is None
        assert len(again.records) == 1


class TestOversizeRecord:
    """A record longer than every reader accepts is refused on write.
    Unchecked, it was journaled, synced and counted, and the recovery
    scan then quarantined it as an unreadable segment remainder: the
    message was gone after recovery."""

    def test_the_send_is_refused_before_a_byte_is_written(self):
        broker, journal, queue, _consumer = fresh(attach=False)
        queue.send(Message(topic="q", properties={"n": 0}), now=0.0)
        disk, segment = journal.disk, journal.current_segment
        writes, length = disk.writes, disk.length(segment)
        big = Message(topic="q", body=b"x" * (MAX_RECORD_BYTES + 1))
        assert queue.send(big, now=0.0) is False
        assert queue.journal_write_failures == 1
        assert journal.records_appended == 1 and journal.write_failures == 0
        assert disk.writes == writes and disk.length(segment) == length
        assert big.message_id not in backlog_ids(queue)
        queue.send(Message(topic="q", properties={"n": 2}), now=0.0)
        assert journal.rotations == 0  # the tail was not dirtied
        accepted = backlog_ids(queue)
        assert len(accepted) == 2

        broker2, _j2, queue2, _c2 = reborn(journal, attach=False)
        broker2.recover(reconnect_subscribers=False, now=1.0)
        report = broker2.last_recovery
        assert report.errors == [] and report.quarantined == []
        assert backlog_ids(queue2) == accepted

    def test_an_oversize_checkpoint_raises_before_it_rotates(self):
        _broker, journal, queue, _consumer = fresh(attach=False)
        queue.send(Message(topic="q"), now=0.0)
        segments = journal.segments
        entry = {"dest": "q", "domain": "queue", "mid": 1,
                 "msg": {"mid": 1, "body": b"x" * MAX_RECORD_BYTES}}
        with pytest.raises(JournalWriteError):
            journal.checkpoint([entry])
        assert journal.segments == segments and journal.checkpoints == 0
        assert len(scan_disk(journal.disk, journal.name).records) == 1


class TestTopics:
    def test_retained_copies_restored_for_offline_durables(self):
        journal = Journal(SimulatedDisk(RandomStreams(0)), sync=SyncPolicy.always())
        broker = Broker(topics=["audit"], journal=journal)
        subscriber = broker.add_subscriber("alice")
        broker.subscribe(subscriber, "audit", durable=True)
        broker.disconnect(subscriber)
        broker.publish(Message(topic="audit", properties={"n": 1}), now=0.0)

        disk2 = SimulatedDisk.from_snapshot(journal.disk.snapshot())
        journal2 = Journal(disk2, sync=SyncPolicy.always())
        broker2 = Broker(topics=["audit"], journal=journal2)
        subscriber2 = broker2.add_subscriber("alice")
        broker2.subscribe(subscriber2, "audit", durable=True)
        broker2.disconnect(subscriber2)
        broker2.recover(reconnect_subscribers=False, now=1.0)
        report = broker2.last_recovery
        assert report.retained_restored == 1
        assert report.orphaned == 0
        # reconnecting replays the restored copy
        assert broker2.reconnect(subscriber2) == 1

    def test_missing_subscription_is_orphaned_not_fatal(self):
        journal = Journal(SimulatedDisk(RandomStreams(0)), sync=SyncPolicy.always())
        broker = Broker(topics=["audit"], journal=journal)
        subscriber = broker.add_subscriber("alice")
        broker.subscribe(subscriber, "audit", durable=True)
        broker.disconnect(subscriber)
        broker.publish(Message(topic="audit"), now=0.0)

        disk2 = SimulatedDisk.from_snapshot(journal.disk.snapshot())
        journal2 = Journal(disk2, sync=SyncPolicy.always())
        broker2 = Broker(topics=["audit"], journal=journal2)  # nobody re-subscribed
        broker2.recover(reconnect_subscribers=False, now=1.0)
        assert broker2.last_recovery.orphaned == 1
        assert broker2.last_recovery.errors == []


class TestInProcessCrash:
    def test_broker_crash_then_recover_uses_the_journal(self):
        broker, _journal, queue, consumer = fresh()
        for i in range(3):
            queue.send(Message(topic="q", properties={"n": i}), now=0.0)
        consumer.ack(consumer.receive())
        broker.crash(now=0.5)
        assert queue.depth == 0  # memory is gone
        broker.recover(reconnect_subscribers=False, now=1.0)
        assert broker.last_recovery is not None
        assert broker.last_recovery.requeued == 2
        assert queue.depth == 2


class TestHeaderlessFinalSegment:
    def test_scan_deletes_headerless_final_segment(self):
        """Deleting (not truncating to 0) prevents a later resume from
        appending committed records into a file the next scan rejects."""
        journal = Journal(SimulatedDisk(RandomStreams(0)))
        journal.log_publish("queue", "q", Message(topic="q"))
        journal.close()
        torn = "journal.00000001.seg"
        journal.disk.create(torn)
        journal.disk.append(torn, b"RJN")  # 3 of 10 header bytes survived
        scan = scan_disk(journal.disk, journal.name)
        assert scan.torn_tail is not None
        assert scan.torn_tail.segment == torn
        assert torn not in journal.disk.list()
        assert len(scan.records) == 1
        # a journal reopened on the repaired disk appends recoverable records
        resumed = Journal(journal.disk)
        resumed.log_publish("queue", "q", Message(topic="q"))
        resumed.close()
        assert len(scan_disk(journal.disk, resumed.name).records) == 2


class TestMalformedPayloads:
    def test_schema_malformed_publish_reported_not_raised(self):
        from repro.durability.journal import JournalRecord, RecordKind

        journal = Journal(SimulatedDisk(RandomStreams(0)))
        # CRC-valid PUBLISH with no 'msg' field: must not raise KeyError
        journal.append(
            JournalRecord(RecordKind.PUBLISH, {"domain": "queue", "dest": "q", "mid": 1})
        )
        broker = Broker(journal=journal)
        broker.queues.create("q")
        broker.recover(reconnect_subscribers=False, now=0.0)  # must not raise
        report = broker.last_recovery
        assert report.requeued == 0
        assert any("malformed" in error for error in report.errors)

    def test_schema_malformed_checkpoint_entry_reported_not_raised(self):
        from repro.durability.journal import JournalRecord, RecordKind

        journal = Journal(SimulatedDisk(RandomStreams(0)))
        journal.append(
            JournalRecord(RecordKind.CHECKPOINT, {"entries": [{"bogus": True}]})
        )
        broker = Broker(journal=journal)
        broker.recover(reconnect_subscribers=False, now=0.0)  # must not raise
        report = broker.last_recovery
        assert any("CHECKPOINT" in error for error in report.errors)


class TestLogConvergence:
    def test_terminal_fates_decided_at_recovery_journal_and_converge(self):
        """Downtime expiry / budget dead-lettering must not repeat on the
        next crash-recover cycle over the same (long-lived) journal."""
        broker, journal, queue, consumer = fresh(max_redeliveries=0)
        queue.send(Message(topic="q", expiration=5.0), now=0.0)
        queue.send(Message(topic="q"), now=0.0)
        consumer.receive()  # delivery burns the whole budget (max=0)
        consumer.receive()

        broker.crash(now=0.5)
        broker.recover(reconnect_subscribers=False, now=10.0)  # past the TTL
        first = broker.last_recovery
        assert first.expired_during_downtime == 1
        assert first.dead_lettered_on_recovery == 1
        assert first.terminal_fates_journaled == 2
        assert len(queue.dead_letters) == 1
        expired_after_first = queue.expired

        broker.crash(now=11.0)
        broker.recover(reconnect_subscribers=False, now=12.0)
        second = broker.last_recovery
        # the log converged: nothing is re-expired or re-dead-lettered
        assert second.expired_during_downtime == 0
        assert second.dead_lettered_on_recovery == 0
        assert second.terminal_fates_journaled == 0
        assert len(queue.dead_letters) == 1
        assert queue.expired == expired_after_first

    def test_downtime_expired_topic_message_journals_expire(self):
        journal = Journal(SimulatedDisk(RandomStreams(0)), sync=SyncPolicy.always())
        broker = Broker(topics=["audit"], journal=journal)
        subscriber = broker.add_subscriber("alice")
        broker.subscribe(subscriber, "audit", durable=True)
        broker.disconnect(subscriber)
        broker.publish(Message(topic="audit", expiration=5.0), now=0.0)

        broker.crash(now=0.5)
        broker.recover(reconnect_subscribers=False, now=10.0)
        assert broker.last_recovery.expired_during_downtime == 1
        assert broker.last_recovery.terminal_fates_journaled == 1
        expired_after_first = broker.stats.expired

        broker.crash(now=11.0)
        broker.recover(reconnect_subscribers=False, now=12.0)
        assert broker.last_recovery.expired_during_downtime == 0
        assert broker.stats.expired == expired_after_first


class TestBoundedRestore:
    def test_restore_honours_capacity_via_drop_policy(self):
        from repro.broker.queues import DropPolicy

        broker, journal, queue, _consumer = fresh(attach=False)
        for i in range(4):
            queue.send(Message(topic="q", properties={"n": i}), now=0.0)
        sent_ids = sorted(backlog_ids(queue))

        broker2, journal2, queue2, _c2 = reborn(
            journal, attach=False, capacity=2, drop_policy=DropPolicy.DROP_OLDEST
        )
        broker2.recover(reconnect_subscribers=False, now=1.0)
        report = broker2.last_recovery
        assert queue2.depth == 2  # never above the configured bound
        assert report.dropped_on_recovery == 2
        assert queue2.dropped_oldest == 2
        # the freshest two survive under DROP_OLDEST
        assert backlog_ids(queue2) == set(sent_ids[-2:])
        # ledger: restored == depth + drops
        assert queue2.restored == queue2.depth + queue2.dropped_oldest

        # the shed messages were journalled dropped: replay converges
        broker3, _j3, queue3, _c3 = reborn(
            journal2, attach=False, capacity=2, drop_policy=DropPolicy.DROP_OLDEST
        )
        broker3.recover(reconnect_subscribers=False, now=2.0)
        assert queue3.restored == 2
        assert queue3.depth == 2
        assert queue3.dropped_oldest == 0
