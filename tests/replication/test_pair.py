"""Tests for the replicated pair: shipping, acks, promotion, fencing."""

import pytest

from repro.broker.message import Message
from repro.broker.queues import QueueConsumer
from repro.replication import (
    FencingError,
    ReplicatedPair,
    ReplicationConfig,
    decode_frame,
)

QUEUE = "orders"
DT = 0.01


def make_pair(mode="sync", **overrides):
    defaults = dict(
        mode=mode,
        ship_interval=2 * DT,
        batch_size=4,
        lease_duration=20 * DT,
        renew_interval=5 * DT,
        link_delay=DT / 5,
        retransmit_timeout=3 * DT,
        segment_bytes=2048,
    )
    defaults.update(overrides)
    return ReplicatedPair(ReplicationConfig(**defaults), seed=0)


def publish(pair, n, start_step=0):
    """``n`` persistent sends, ticking the pair after each."""
    queue = pair.primary.queues.create(QUEUE)
    for i in range(start_step, start_step + n):
        now = (i + 1) * DT
        queue.send(Message(topic=QUEUE, properties={"n": i}), now=now)
        pair.tick(now)
    return (start_step + n) * DT


def settle(pair, now, ticks=10):
    for _ in range(ticks):
        now += DT
        pair.tick(now)
    return now


class TestShipping:
    def test_sync_acks_trail_standby_application(self):
        pair = make_pair("sync")
        now = settle(pair, publish(pair, 10))
        assert pair.standby.records_applied == pair.journal.records_appended
        assert pair.client_acked_records == pair.journal.records_appended
        assert pair.shipped_lag_records == 0
        assert pair.unshipped_acked_records == 0

    def test_async_acks_on_local_fsync(self):
        pair = make_pair("async", ship_interval=50 * DT, batch_size=1000)
        publish(pair, 5)
        # Nothing shipped yet (interval not elapsed, batch not full) but
        # every local append is already client-acked.
        assert pair.client_acked_records == pair.journal.records_appended == 5
        assert pair.standby.records_applied == 0
        assert pair.unshipped_acked_records == 5

    def test_standby_journal_is_byte_identical_to_the_primary_after_a_clean_run(self):
        # Shipping forwards the tailer's verified bytes and the standby
        # appends them as received: with equal segment sizes the replica's
        # disk is the primary's, byte for byte, rotations included.
        pair = make_pair("sync")
        settle(pair, publish(pair, 40))
        assert pair.journal.rotations > 2
        assert pair.standby.records_applied == pair.journal.records_appended
        assert pair.standby.malformed_records == 0
        assert pair.standby.disk.snapshot() == pair.primary_disk.snapshot()

    def test_full_batch_ships_immediately(self):
        pair = make_pair("sync", batch_size=3, ship_interval=100 * DT)
        now = settle(pair, publish(pair, 3), ticks=3)
        assert pair.frames_shipped >= 1
        assert pair.standby.records_applied >= 3

    def test_dropped_frames_are_retransmitted(self):
        pair = make_pair("sync")
        pair.link.drop_next(1)
        now = settle(pair, publish(pair, 6), ticks=20)
        assert pair.retransmits >= 1
        assert pair.standby.records_applied == pair.journal.records_appended
        assert pair.client_acked_records == pair.journal.records_appended

    def test_corrupt_frames_are_retransmitted(self):
        pair = make_pair("sync")
        pair.link.corrupt_next(1)
        settle(pair, publish(pair, 6), ticks=20)
        assert pair.standby.records_applied == pair.journal.records_appended

    def test_retransmits_reencode_with_current_epoch(self):
        # A lease re-acquisition mid-window bumps the epoch; frames built
        # before the bump must be retransmitted under the *new* epoch,
        # not replayed as stale wire bytes (regression: old-epoch
        # retransmissions were fenced forever and the gap never filled).
        pair = make_pair("sync")
        epoch_before = pair.primary_epoch
        pair.link.drop_next(1)
        now = publish(pair, 4)  # one full batch ships and is dropped
        assert pair._unacked
        # The lease lapses with nobody taking it; revival re-acquires it
        # at a bumped epoch while the dropped frame is still unacked.
        pair.pause_primary(now)
        now += pair.config.lease_duration + DT
        pair.revive_primary(now)
        pair.tick(now)
        assert pair.primary_epoch > epoch_before
        assert pair.retransmits >= 1
        frames = [decode_frame(p) for p in pair.link.deliver_due(now + 1.0)]
        assert frames
        assert all(f is not None for f in frames)
        assert all(f.epoch == pair.primary_epoch for f in frames)

    def test_replication_converges_after_lease_reacquisition(self):
        pair = make_pair("sync")
        pair.link.drop_next(1)
        now = publish(pair, 4)
        pair.pause_primary(now)
        now += pair.config.lease_duration + DT
        pair.revive_primary(now)
        settle(pair, now, ticks=30)
        assert pair.standby.records_applied == pair.journal.records_appended
        assert pair.standby.frames_fenced == 0
        assert pair.client_acked_records == pair.journal.records_appended

    def test_acked_records_visible_through_fencing_gate(self):
        pair = make_pair("sync")
        now = settle(pair, publish(pair, 4))
        assert pair.acked_records(now) == pair.client_acked_records


class TestFailover:
    def test_crash_then_standby_promotes_with_backlog(self):
        pair = make_pair("sync")
        crash_at = settle(pair, publish(pair, 9))
        pair.crash_primary(crash_at)
        now = crash_at
        while not pair.promoted and now < crash_at + 5 * pair.config.lease_duration:
            now += DT
            pair.tick(now)
            pair.maybe_promote(now)
        assert pair.promoted
        report = pair.promotion
        assert report.succeeded and not report.errors
        assert report.epoch > 1
        # Every sync-acked message survives into the promoted backlog.
        broker = pair.leader_broker
        assert broker is report.broker
        consumer = QueueConsumer("verifier")
        broker.queues.create(QUEUE).attach(consumer)
        drained = 0
        while consumer.receive() is not None:
            drained += 1
        assert drained == 9

    def test_detection_waits_for_lease_expiry(self):
        pair = make_pair("sync")
        crash_at = settle(pair, publish(pair, 3))
        pair.crash_primary(crash_at)
        # Immediately after the crash the lease is still live: no takeover.
        assert pair.maybe_promote(crash_at + DT) is None
        assert not pair.promoted

    def test_promote_is_idempotent(self):
        pair = make_pair("sync")
        crash_at = settle(pair, publish(pair, 3))
        pair.crash_primary(crash_at)
        now = crash_at + pair.config.lease_duration + DT
        pair.tick(now)
        assert pair.maybe_promote(now) is not None
        assert pair.maybe_promote(now + DT) is None

    def test_crash_primary_twice_is_a_noop(self):
        pair = make_pair("sync")
        pair.crash_primary(1.0)
        first = pair.crashed_at
        pair.crash_primary(2.0)
        assert pair.crashed_at == first


class TestFencing:
    def _pause_and_fail_over(self, pair, now):
        pair.pause_primary(now)
        deadline = now + 5 * pair.config.lease_duration
        while not pair.promoted and now < deadline:
            now += DT
            pair.tick(now)
            pair.maybe_promote(now)
        assert pair.promoted
        return now

    def test_revived_primary_is_fenced(self):
        pair = make_pair("sync")
        now = self._pause_and_fail_over(pair, settle(pair, publish(pair, 6)))
        pair.revive_primary(now)
        now += DT
        pair.tick(now)  # renewal attempt observes the superseding lease
        assert pair.primary_fenced
        with pytest.raises(FencingError):
            pair.acked_records(now)
        assert pair.fencing_errors >= 1
        assert pair.lease.fencing_rejections >= 1

    def test_fenced_primary_watermark_frozen(self):
        pair = make_pair("sync")
        watermark = None
        now = self._pause_and_fail_over(pair, settle(pair, publish(pair, 6)))
        watermark = pair.client_acked_records
        pair.revive_primary(now)
        # Local sends on the zombie primary must never become client acks.
        queue = pair.primary.queues.create(QUEUE)
        for i in range(3):
            now += DT
            queue.send(Message(topic=QUEUE, properties={"z": i}), now=now)
            pair.tick(now)
        assert pair.client_acked_records == watermark

    def test_late_frames_from_old_epoch_rejected_by_standby(self):
        pair = make_pair("sync")
        now = self._pause_and_fail_over(pair, settle(pair, publish(pair, 6)))
        applied_before = pair.standby.records_applied
        pair.revive_primary(now)
        queue = pair.primary.queues.create(QUEUE)
        for i in range(4):
            now += DT
            queue.send(Message(topic=QUEUE, properties={"late": i}), now=now)
            pair.tick(now)
        assert pair.standby.records_applied == applied_before

    def test_dead_primary_ack_raises(self):
        pair = make_pair("sync")
        pair.crash_primary(1.0)
        with pytest.raises(FencingError):
            pair.acked_records(1.1)


class TestCheckpointUnderShipping:
    def test_checkpoint_compaction_does_not_lose_replicated_state(self):
        pair = make_pair("sync", segment_bytes=512)
        queue = pair.primary.queues.create(QUEUE)
        consumer = QueueConsumer("worker")
        queue.attach(consumer)
        now = 0.0
        for i in range(12):
            now += DT
            queue.send(Message(topic=QUEUE, properties={"n": i}), now=now)
            delivery = consumer.receive()
            if delivery is not None:
                consumer.ack(delivery)
            pair.tick(now)
            if i == 6:
                pair.checkpoint_primary(now)
        settle(pair, now, ticks=20)
        # The tailer survived the compaction and the standby converged.
        assert pair.standby.records_applied > 0
        assert pair.shipped_lag_records == 0


class TestCheckpointAckWatermark:
    """The ack watermark is an LSN, like ``journal.records_appended``: a
    CHECKPOINT the tailer repositions onto acks the records it subsumed.
    Counting only the records shipped, the watermark stayed behind for
    good, and a sync client waiting for its LSN waited forever."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_checkpoint_before_any_tick_settles_to_acked_equals_appended(self, mode):
        pair = make_pair(mode)
        queue = pair.primary.queues.create(QUEUE)
        for n in range(3):
            queue.send(Message(topic=QUEUE, properties={"n": n}), now=0.0)
        lsn, _deleted = pair.checkpoint_primary(0.0)
        assert lsn == 3
        now = settle(pair, 0.0)
        assert pair.standby.records_applied == 1  # the CHECKPOINT alone
        assert pair.client_acked_records == pair.journal.records_appended == 4
        assert pair.records_acked_by_standby == 4
        assert pair.shipped_lag_records == pair.unshipped_acked_records == 0
        queue.send(Message(topic=QUEUE, properties={"n": 3}), now=now)
        settle(pair, now)
        assert pair.client_acked_records == pair.journal.records_appended == 5

    def test_records_taken_before_the_checkpoint_still_count_once(self):
        # The shipper holds two records when the checkpoint compacts a third.
        pair = make_pair("sync", ship_interval=50 * DT, batch_size=1000)
        queue = pair.primary.queues.create(QUEUE)
        for n in range(2):
            queue.send(Message(topic=QUEUE, properties={"n": n}), now=DT)
        pair.tick(DT)
        assert pair.frames_shipped == 0 and pair.tailer.records_read == 2
        queue.send(Message(topic=QUEUE, properties={"n": 2}), now=DT)
        pair.checkpoint_primary(DT)
        now = settle(pair, DT, ticks=60)
        assert pair.frames_shipped == 1 and pair.standby.records_applied == 3
        assert pair.client_acked_records == pair.journal.records_appended == 4

    def test_no_skipped_lsn_is_acked_before_its_checkpoint_is_applied(self):
        pair = make_pair("sync", batch_size=1)
        queue = pair.primary.queues.create(QUEUE)
        for n in range(3):
            queue.send(Message(topic=QUEUE, properties={"n": n}), now=0.0)
        pair.tick(DT)  # one record per frame: three in flight
        queue.send(Message(topic=QUEUE, properties={"n": 3}), now=DT)
        lsn, _deleted = pair.checkpoint_primary(DT)
        pair.link.drop_next(2)
        now = DT
        while pair.client_acked_records < pair.journal.records_appended:
            now += DT
            pair.tick(now)
            if pair.client_acked_records > 3:
                assert pair.standby.journal.checkpoints == 1
            assert now < 1.0
        assert pair.client_acked_records == lsn + 1


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(mode="semi-sync")

    def test_renew_must_be_below_lease(self):
        with pytest.raises(ValueError, match="renew_interval"):
            ReplicationConfig(lease_duration=1.0, renew_interval=1.0)

    def test_non_positive_intervals_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(ship_interval=0.0)
        with pytest.raises(ValueError):
            ReplicationConfig(ship_interval=float("nan"))

    def test_batch_size_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            ReplicationConfig(batch_size=0)

    def test_negative_link_delay_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(link_delay=-0.001)

    def test_to_dict_keys(self):
        pair = make_pair("sync")
        settle(pair, publish(pair, 3))
        payload = pair.to_dict()
        assert payload["mode"] == "sync"
        assert payload["records_appended"] == 3
        assert payload["promoted"] is False


def drain_ids(broker):
    """Property ``n`` of every message in the promoted backlog, in order."""
    consumer = QueueConsumer("after-failover")
    broker.queues.create(QUEUE).attach(consumer)
    ids = []
    while (delivery := consumer.receive()) is not None:
        ids.append(delivery.message.properties["n"])
    return ids


class TestStandbyDiskFault:
    def test_one_write_fault_on_the_standby_loses_no_sync_acked_message(self):
        # Regression: the standby folded the record, swallowed the write
        # error, counted it applied and acked — so the client was told
        # RPO = 0 for a message the replica's journal did not hold, and
        # failover came back with [1, 2, 4, 5].
        pair = make_pair("sync")
        queue = pair.primary.queues.create(QUEUE)
        now = 0.0
        for n in range(1, 6):
            if n == 3:
                pair.standby.disk.fail_writes(1)
            queue.send(Message(topic=QUEUE, properties={"n": n}), now=now)
            while pair.acked_records(now) < pair.journal.records_appended:
                now += DT
                pair.tick(now)
        assert pair.standby.journal_write_failures == 1
        assert pair.retransmits >= 1  # go-back-N carried the frame again
        assert pair.client_acked_records == pair.standby.records_applied == 5
        pair.crash_primary(now)
        report = pair.maybe_promote(now + 2 * pair.config.lease_duration)
        assert report is not None and report.succeeded
        assert drain_ids(report.broker) == [1, 2, 3, 4, 5]
        report.broker.queues.get(QUEUE).closed_ledger().assert_conserved("after failover")

    def test_the_ack_waits_for_the_resend(self):
        pair = make_pair("sync")
        queue = pair.primary.queues.create(QUEUE)
        pair.standby.disk.fail_writes(1)
        queue.send(Message(topic=QUEUE, properties={"n": 1}), now=DT)
        now = DT
        while pair.standby.journal_write_failures == 0:
            now += DT
            pair.tick(now)
        assert pair.client_acked_records == 0 and pair.standby.applied_sequence == 0
        now = settle(pair, now)
        assert pair.client_acked_records == 1


class TestTracerSeams:
    """The lifecycle benchmark wraps these on *instances* after
    construction; a call bound at construction time or a slotted class
    would make its per-layer metrics read zero without failing anything."""

    def test_instance_level_wrappers_are_reached(self):
        pair = make_pair("sync")
        called = []

        def wrap(target, method):
            function = getattr(target, method)

            def wrapper(*args, **kwargs):
                called.append(method)
                return function(*args, **kwargs)

            setattr(target, method, wrapper)  # AttributeError on a slotted class

        wrap(pair.tailer, "poll")
        wrap(pair.standby, "receive")
        for call in ("append", "sync"):
            wrap(pair.journal.disk, call)
        for call in ("log_publish", "log_deliver", "log_ack", "log_expire"):
            wrap(pair.journal, call)
        wrap(pair, "tick")
        now = publish(pair, 3)
        queue = pair.primary.queues.get(QUEUE)
        consumer = QueueConsumer("worker")
        queue.attach(consumer, now=now)  # DELIVER
        consumer.ack(consumer.receive())  # ACK
        queue.send(Message(topic=QUEUE, expiration=now + DT), now=now)
        assert queue.reap_expired(now + 2 * DT) == 1  # EXPIRE
        settle(pair, now + 2 * DT)
        assert set(called) == {
            "poll", "receive", "append", "sync", "tick",
            "log_publish", "log_deliver", "log_ack", "log_expire",
        }
        assert pair.standby.records_applied == pair.journal.records_appended
