"""Failover under checkpoints: the path the 288-point harness never enters.

``repro.chaos.failover`` indexes the primary's scan by record count,
which compaction invalidates, so its workload never checkpoints.  This
suite does, with an oracle over *message ids*: the primary checkpoints
every few steps — always before the tailer has seen the step's own
records, so the tailer repositions onto the snapshot with records still
unread — while the standby compacts at each shipped CHECKPOINT; the
primary is crashed after every step under clean, dropping and corrupting
links in both ack modes, the standby promotes, and what it serves must be
a state the primary was actually in.

The second half crashes the *standby's* disk at every stage of its own
compaction (write → sync → delete): the old history or the new snapshot
recovers, never neither.
"""

import pytest

from repro.broker.message import Message
from repro.broker.queues import QueueConsumer
from repro.durability import SimulatedDisk, scan_disk
from repro.durability.journal import RecordKind
from repro.durability.recovery import fold_records
from repro.replication import ReplicatedPair, ReplicationConfig, StandbyReplica
from repro.rng import RandomStreams

from fault_disks import PrefixFaultDisk
from test_standby import (
    HISTORY,
    checkpoint,
    deliver,
    delivers,
    frame_of,
    publish,
)

QUEUE = "orders"
DT = 0.01
OPS = 24
CHECKPOINT_EVERY = 5

#: Link faults by workload step: ``(step, method of the link, frames)``.
SCENARIOS = {
    "clean": (),
    "drop": ((3, "drop_next", 2), (9, "drop_next", 1), (14, "drop_next", 2)),
    "corrupt": ((4, "corrupt_next", 2), (10, "corrupt_next", 1)),
}


def drained_backlog(broker, now, context):
    """Message ids the promoted broker hands out, in order; its ledger must balance."""
    queue = broker.queues.create(QUEUE)
    consumer = QueueConsumer("after-failover")
    queue.attach(consumer, now=now)
    ids = []
    while (delivery := consumer.receive()) is not None:
        ids.append(delivery.message.message_id)
    queue.closed_ledger().assert_conserved(context)
    return ids


def make_pair(mode):
    config = ReplicationConfig(
        mode=mode,
        ship_interval=2 * DT,
        batch_size=4,
        lease_duration=20 * DT,
        renew_interval=5 * DT,
        link_delay=DT / 5,
        retransmit_timeout=3 * DT,
        segment_bytes=512,
    )
    return ReplicatedPair(config, seed=7)


class Run:
    """The workload up to a crash, with the oracle it builds on the way.

    ``live_after[j]`` is the set of unacked message ids once ``j`` steps
    ran.  A step journals at most one record that changes that set (the
    PUBLISH of a send, the ACK of an ack), so whatever record prefix the
    standby holds, its live set is ``live_after[j]`` for some ``j``.
    ``publish_lsn`` / ``ack_lsn`` say where those records sit in the
    primary's log; a record with ``lsn < pair.records_acked_by_standby``
    has reached the standby (the watermark counts *shipped* records, so
    after a reposition skipped some it only errs on the safe side — and
    what was skipped is in a snapshot shipped before the watermark).
    """

    def __init__(self, mode, scenario, crash_step):
        self.pair = pair = make_pair(mode)
        queue = pair.primary.queues.create(QUEUE)
        consumer = QueueConsumer("worker")
        queue.attach(consumer)
        live = set()
        self.live_after = [frozenset()]
        self.publish_lsn = {}
        self.ack_lsn = {}
        self.snapshots_checked = 0
        now = 0.0
        for step in range(crash_step + 1):
            now = (step + 1) * DT
            for at, fault, frames in SCENARIOS[scenario]:
                if at == step:
                    getattr(pair.link, fault)(frames)
            if step % 3 == 2:
                delivery = consumer.receive()
                if delivery is not None:
                    self.ack_lsn[delivery.message.message_id] = pair.journal.records_appended
                    consumer.ack(delivery)
                    live.discard(delivery.message.message_id)
            else:
                message = Message(topic=QUEUE, properties={"n": step}, body=b"x" * 40)
                self.publish_lsn[message.message_id] = pair.journal.records_appended
                queue.send(message, now=now)
                live.add(message.message_id)
            self.live_after.append(frozenset(live))
            if step % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                pair.checkpoint_primary(now)  # before the tailer saw this step
            self.tick(now)
        self.now = now

    def tick(self, now):
        standby = self.pair.standby
        compactions = standby.journal.checkpoints
        self.pair.tick(now)
        if standby.journal.checkpoints > compactions:
            self.check_replica_is_a_snapshot_and_its_suffix()

    def check_replica_is_a_snapshot_and_its_suffix(self):
        standby = self.pair.standby
        image = SimulatedDisk.from_snapshot(standby.disk.snapshot())
        records = scan_disk(image, standby.name).records
        kinds = [record.kind for record in records]
        assert RecordKind.CHECKPOINT in kinds
        last = len(kinds) - 1 - kinds[::-1].index(RecordKind.CHECKPOINT)
        # Nothing older than the newest applied snapshot survives, the
        # journal's own map was trimmed with it, and the disk replays to
        # the warm fold.
        assert last == 0, kinds
        oldest = standby.journal.segments[0]
        assert all(loc.segment >= oldest for loc in standby.journal.record_locations)
        assert len(standby.journal.record_locations) == len(records)
        assert set(fold_records(records).live) == set(standby.fold.result.live)
        self.snapshots_checked += 1

    def settle(self):
        for _ in range(12):  # several retransmit timeouts
            self.now += DT
            self.tick(self.now)

    def fail_over(self):
        pair = self.pair
        self.client_acked = pair.client_acked_records
        self.on_standby = pair.records_acked_by_standby
        pair.crash_primary(self.now + DT / 2)
        deadline = self.now + 3 * pair.config.lease_duration
        while not pair.promoted and self.now <= deadline:
            self.now += DT
            self.tick(self.now)
            pair.maybe_promote(self.now)
        report = pair.promotion
        assert report is not None and report.succeeded, report
        assert report.recovery is not None and not report.recovery.errors
        return report

    def backlog(self, broker):
        return drained_backlog(broker, self.now, "after failover")


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestCrashAfterEveryStep:
    def test_the_promoted_backlog_is_a_state_the_primary_was_in(self, mode, scenario):
        repositions = compactions = 0
        for crash_step in range(OPS):
            run = Run(mode, scenario, crash_step)
            report = run.fail_over()
            warm = {key[2] for key in run.pair.standby.fold.result.live}
            backlog = run.backlog(report.broker)
            context = (mode, scenario, crash_step)
            assert len(backlog) == len(set(backlog)), context
            assert set(backlog) == warm, context  # the disk replays to the warm fold
            # Some prefix of the primary's history, by message id.
            assert set(backlog) in run.live_after, (context, sorted(backlog))
            # No id whose ACK reached the standby is delivered again.
            replicated_acks = {m for m, lsn in run.ack_lsn.items() if lsn < run.on_standby}
            assert not replicated_acks & set(backlog), context
            if mode == "sync":
                # No message the client was told is safe may be gone: it is
                # in the backlog or the primary itself saw it acked.
                told_safe = {m for m, lsn in run.publish_lsn.items() if lsn < run.client_acked}
                assert told_safe <= set(backlog) | set(run.ack_lsn), context
            assert report.records_replayed <= report.records_applied
            repositions += run.pair.tailer.repositions
            compactions += run.snapshots_checked
        # The suite is only worth its name if both of these happened a lot.
        assert repositions >= OPS and compactions >= OPS

    def test_once_shipping_settles_the_backlog_is_exactly_the_live_set(self, mode, scenario):
        for crash_step in range(OPS):
            run = Run(mode, scenario, crash_step)
            run.settle()
            standby = run.pair.standby
            before = standby.records_applied
            report = run.fail_over()
            backlog = run.backlog(report.broker)
            assert sorted(backlog) == sorted(run.live_after[-1]), (mode, scenario, crash_step)
            if crash_step >= CHECKPOINT_EVERY:
                # Promotion replayed a checkpoint period, not the lifetime.
                assert report.records_replayed < before
                assert report.recovery.checkpoint_used


class TestTheTwoFoldsAgree:
    def test_after_a_checkpointed_run_replica_and_primary_fold_alike(self):
        run = Run("sync", "clean", OPS - 1)
        run.settle()
        pair = run.pair
        assert pair.tailer.repositions >= 3 and pair.standby.journal.checkpoints >= 3
        primary = fold_records(scan_disk(SimulatedDisk.from_snapshot(
            pair.primary_disk.snapshot())).records)
        replica = fold_records(scan_disk(SimulatedDisk.from_snapshot(
            pair.standby.disk.snapshot())).records)
        assert delivers(primary) == delivers(replica) == delivers(pair.standby.fold.result)
        assert set(delivers(primary)) == run.live_after[-1]
        # Bounded by the checkpoint interval, not by uptime.
        assert len(pair.standby.journal.record_locations) < pair.standby.records_applied
        assert len(pair.standby.journal.segments) <= len(pair.journal.segments) + 1


# ----------------------------------------------------------------------
# The standby's own disk dies during its compaction
# ----------------------------------------------------------------------
class PowerLoss(BaseException):
    """Not an ``Exception``: nothing in the product may swallow it."""


class DyingDisk(SimulatedDisk):
    """Loses power at the ``n``-th mutating call from :meth:`arm`."""

    def __init__(self, seed):
        super().__init__(RandomStreams(seed))
        self.left = None

    def arm(self, calls):
        self.left = calls

    def _count(self):
        if self.left is not None:
            if self.left == 0:
                raise PowerLoss
            self.left -= 1

    def create(self, name):
        self._count()
        super().create(name)

    def append(self, name, data):
        self._count()
        return super().append(name, data)

    def sync(self, name):
        self._count()
        super().sync(name)

    def delete(self, name):
        self._count()
        super().delete(name)


OLD = {1: 2, 3: 0}  # the fold of HISTORY
SNAPSHOT = (checkpoint(1, 3, 8), deliver(8), publish(9))
NEW = {1: 0, 3: 0, 8: 1, 9: 0}


def promoted_backlog(disk):
    """A restarted standby process promotes from what the disk kept."""
    report = StandbyReplica(disk=disk, segment_bytes=256).promote(now=1.0, epoch=2)
    assert report.succeeded and not report.recovery.errors, report
    return sorted(drained_backlog(report.broker, 1.0, "after standby crash"))


class TestStandbyDiskCrashDuringCompaction:
    def compaction_calls(self):
        disk = DyingDisk(0)
        replica = StandbyReplica(disk=disk, segment_bytes=256)
        replica.receive(frame_of(0, *HISTORY))
        disk.arm(10_000)
        replica.receive(frame_of(1, *SNAPSHOT))
        return 10_000 - disk.left

    def test_old_history_or_new_snapshot_never_neither(self):
        calls = self.compaction_calls()
        assert calls >= 8  # rotate, write, sync, several deletes, the suffix
        outcomes = set()
        for stop_at in range(calls + 1):
            for seed in range(6):
                disk = DyingDisk(seed)
                replica = StandbyReplica(disk=disk, segment_bytes=256)
                assert replica.receive(frame_of(0, *HISTORY)) == 1
                disk.arm(stop_at)
                try:
                    replica.receive(frame_of(1, *SNAPSHOT))
                except PowerLoss:
                    pass
                disk.arm(None)
                disk.crash()
                backlog = promoted_backlog(disk)
                # Old history, the snapshot, or the snapshot and some of
                # what followed it — each a state the primary was in.
                assert backlog in ([1, 3], [1, 3, 8], [1, 3, 8, 9]), (stop_at, seed)
                outcomes.add(tuple(backlog))
                if stop_at == calls:
                    assert backlog == sorted(NEW)  # acked means durable
        assert outcomes == {(1, 3), (1, 3, 8), (1, 3, 8, 9)}

    def test_the_old_segments_go_only_after_the_snapshot_is_synced(self):
        calls = self.compaction_calls()
        for stop_at in range(calls + 1):
            disk = DyingDisk(0)
            replica = StandbyReplica(disk=disk, segment_bytes=256)
            replica.receive(frame_of(0, *HISTORY))
            old = set(replica.journal.segments)
            disk.arm(stop_at)
            try:
                replica.receive(frame_of(1, *SNAPSHOT))
            except PowerLoss:
                pass
            disk.arm(None)
            if old - set(disk.list()):  # a delete happened: the snapshot must be safe
                newest_old = max(old)
                snapshot = min(s for s in disk.list() if s > newest_old)
                assert disk.synced_length(snapshot) == disk.length(snapshot) > 0
                records = scan_disk(SimulatedDisk.from_snapshot(
                    {snapshot: disk.read(snapshot)})).records
                assert records and records[0].kind is RecordKind.CHECKPOINT

    @pytest.mark.parametrize("nth", [1, 2], ids=["rotation-header", "checkpoint-append"])
    def test_a_write_fault_in_the_compaction_then_a_crash_recovers_the_old_history(self, nth):
        for seed in range(4):
            for keep in (0, 4, 10_000):
                disk = PrefixFaultDisk()
                disk.streams = RandomStreams(seed)  # what the crash tears
                replica = StandbyReplica(disk=disk, segment_bytes=256)
                replica.receive(frame_of(0, *HISTORY))
                disk.fail_at(nth, keep)
                assert replica.receive(frame_of(1, *SNAPSHOT)) == 1  # not acknowledged
                assert replica.journal_write_failures == 1
                disk.crash()
                assert promoted_backlog(disk) in ([1, 3], [1, 3, 8]), (seed, keep)


def test_the_shared_helpers_still_describe_history():
    # OLD / NEW above are what the frames fold to (guards the constants).
    replica = StandbyReplica()
    replica.receive(frame_of(0, *HISTORY))
    assert delivers(replica.fold.result) == OLD
    replica.receive(frame_of(1, *SNAPSHOT))
    assert delivers(replica.fold.result) == NEW
