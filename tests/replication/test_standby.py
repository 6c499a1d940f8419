"""Regression tests for the standby's fencing floor and reorder window.

The fencing floor must only move on authenticated coordinator events
(:meth:`StandbyReplica.observe_epoch`), never on the epoch field of a
received frame — a floor that trusted frame contents could be poisoned
by one corrupted or forged epoch into fencing the live primary forever.
"""

import pytest

from repro.broker.message import Message
from repro.durability.journal import (
    SEGMENT_HEADER_SIZE,
    JournalRecord,
    RecordKind,
    encode_message,
    encode_record,
)
from repro.replication import ShipFrame, StandbyReplica, encode_frame


def publish_record(n):
    message = Message(topic="orders", properties={"n": n})
    payload = {
        "domain": "queue",
        "dest": "orders",
        "msg": encode_message(message),
        "mid": message.message_id,
    }
    return encode_record(JournalRecord(RecordKind.PUBLISH, payload))


def wire(sequence, epoch, count=1):
    records = tuple(publish_record(sequence * 100 + i) for i in range(count))
    return encode_frame(ShipFrame(sequence=sequence, epoch=epoch, records=records))


class TestFencingFloor:
    def test_frame_epoch_never_raises_the_floor(self):
        standby = StandbyReplica()
        standby.receive(wire(0, epoch=0x80000001))
        assert standby.max_epoch_seen == 0
        # A later frame at a modest epoch must still apply: had the bogus
        # epoch raised the floor, the live primary would be fenced forever.
        ack = standby.receive(wire(1, epoch=1))
        assert ack == 2
        assert standby.frames_fenced == 0
        assert standby.records_applied == 2

    def test_observe_epoch_raises_floor_and_fences_stale_frames(self):
        standby = StandbyReplica()
        standby.observe_epoch(3)
        assert standby.max_epoch_seen == 3
        ack = standby.receive(wire(0, epoch=2))
        assert ack == 0
        assert standby.frames_fenced == 1
        # The same sequence shipped under the current epoch applies.
        assert standby.receive(wire(0, epoch=3)) == 1

    def test_corrupted_epoch_frame_is_discarded_end_to_end(self):
        standby = StandbyReplica()
        mutated = bytearray(wire(0, epoch=1))
        mutated[4] ^= 0x80  # high bit of the epoch field
        standby.receive(bytes(mutated))
        assert standby.corrupt_frames == 1
        assert standby.max_epoch_seen == 0
        # The authentic retransmission still applies normally.
        assert standby.receive(wire(0, epoch=1)) == 1


class TestReorderWindow:
    def test_far_future_sequence_discarded_not_buffered(self):
        standby = StandbyReplica(reorder_window=8)
        ack = standby.receive(wire(8, epoch=1))
        assert ack == 0
        assert standby.frames_out_of_window == 1
        assert standby.frames_buffered == 0
        assert not standby._buffered

    def test_within_window_buffered_and_drained(self):
        standby = StandbyReplica(reorder_window=8)
        standby.receive(wire(1, epoch=1))
        assert standby.frames_buffered == 1
        assert standby.receive(wire(0, epoch=1)) == 2
        assert standby.records_applied == 2

    def test_discarded_frame_applies_once_retransmitted_in_order(self):
        standby = StandbyReplica(reorder_window=2)
        standby.receive(wire(2, epoch=1))  # beyond the window: discarded
        assert standby.frames_out_of_window == 1
        for sequence in range(3):  # go-back-N resends everything unacked
            standby.receive(wire(sequence, epoch=1))
        assert standby.applied_sequence == 3
        assert standby.records_applied == 3

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            StandbyReplica(reorder_window=0)


class TestAppliesTheShippedBytes:
    """The standby appends the record bytes it verified, never a re-encoding."""

    def test_record_corrupted_in_flight_is_counted_and_never_reaches_the_disk(self):
        # The frame CRC is computed over the damaged bytes (damage between
        # the tailer and the framer), so only the record's own CRC can
        # catch it.
        good = [publish_record(n) for n in range(3)]
        damaged = bytearray(good[1])
        damaged[-5] ^= 0x40
        frame = ShipFrame(sequence=0, epoch=1, records=(good[0], bytes(damaged), good[2]))
        replica = StandbyReplica()
        assert replica.receive(encode_frame(frame)) == 1
        assert replica.malformed_records == 1
        assert replica.records_applied == 2
        assert replica.journal.records_appended == 2
        segment = replica.journal.current_segment
        assert replica.disk.read(segment, SEGMENT_HEADER_SIZE) == good[0] + good[2]

    def test_trailing_bytes_after_a_valid_record_are_malformed(self):
        frame = ShipFrame(sequence=0, epoch=1, records=(publish_record(0) + b"\x00",))
        replica = StandbyReplica()
        replica.receive(encode_frame(frame))
        assert replica.malformed_records == 1
        assert replica.journal.records_appended == 0


# ----------------------------------------------------------------------
# A frame is one commit: written, then folded, then acknowledged
# ----------------------------------------------------------------------
from fault_disks import PrefixFaultDisk  # noqa: E402
from repro.durability import SimulatedDisk, scan_disk  # noqa: E402
from repro.durability.journal import _frame  # noqa: E402
from repro.durability.recovery import fold_records  # noqa: E402


def deliver(mid, consumer="worker"):
    return _frame(
        RecordKind.DELIVER,
        {"domain": "queue", "dest": "orders", "mid": mid, "consumer": consumer},
    )


def ack(mid):
    return _frame(
        RecordKind.ACK, {"domain": "queue", "dest": "orders", "mid": mid, "reason": "acked"}
    )


def publish(mid, body=b"payload"):
    message = Message(topic="orders", properties={"n": mid}, body=body, message_id=mid)
    payload = {"domain": "queue", "dest": "orders", "msg": encode_message(message), "mid": mid}
    return encode_record(JournalRecord(RecordKind.PUBLISH, payload))


def checkpoint(*mids):
    entries = [
        {
            "domain": "queue",
            "dest": "orders",
            "mid": mid,
            "msg": encode_message(Message(topic="orders", body=b"kept", message_id=mid)),
            "delivers": 0,
        }
        for mid in mids
    ]
    return encode_record(JournalRecord(RecordKind.CHECKPOINT, {"entries": entries}))


def frame_of(sequence, *records):
    return encode_frame(ShipFrame(sequence=sequence, epoch=1, records=tuple(records)))


def replica_records(replica):
    """What a promotion would replay: a scan of a copy of the replica's disk."""
    image = SimulatedDisk.from_snapshot(replica.disk.snapshot())
    return scan_disk(image, replica.name).records


def delivers(fold_result):
    return {key[2]: entry.delivers for key, entry in fold_result.live.items()}


#: Two messages, one delivered twice, one delivered and acked: a record
#: folded twice would show in ``delivers`` (2 → 3) or as ``unmatched``.
HISTORY = (publish(1), publish(2), deliver(1), deliver(2), deliver(1), ack(2), publish(3))


class TestAWriteFaultNeverAcknowledgesOrDuplicates:
    def test_a_frame_the_replica_could_not_write_is_not_acknowledged_or_folded(self):
        disk = PrefixFaultDisk()
        replica = StandbyReplica(disk=disk)
        assert replica.receive(frame_of(0, publish(1))) == 1
        disk.fail_at(1, keep=3)
        assert replica.receive(frame_of(1, publish(2), deliver(2))) == 1  # not acked
        assert replica.journal_write_failures == 1
        assert replica.records_applied == 1 and replica.frames_applied == 1
        assert delivers(replica.fold.result) == {1: 0}
        # Go-back-N resends it: now it lands, once.
        assert replica.receive(frame_of(1, publish(2), deliver(2))) == 2
        assert replica.records_applied == 3
        assert delivers(replica.fold.result) == {1: 0, 2: 1}
        assert delivers(fold_records(replica_records(replica))) == {1: 0, 2: 1}

    def test_at_every_byte_the_resend_lands_each_record_exactly_once(self):
        # A failed write keeps a prefix of the run, and the prefix can hold
        # whole records.  Whatever it holds, after the resend the replica
        # replays the history once: no record lost, none folded twice.
        run = b"".join(HISTORY)
        expected = {1: 2, 3: 0}
        resumed = set()
        for keep in range(len(run) + 1):
            disk = PrefixFaultDisk()
            replica = StandbyReplica(disk=disk)
            disk.fail_at(1, keep)
            assert replica.receive(frame_of(0, *HISTORY)) == 0
            resumed.add(replica._resume)
            assert replica.records_applied == replica._resume
            assert len(replica.fold.result.live) <= 3
            assert replica.receive(frame_of(0, *HISTORY)) == 1, keep
            assert replica.records_applied == len(HISTORY)
            assert replica.journal.unsynced_bytes == 0  # durable before the ack
            assert delivers(replica.fold.result) == expected, keep
            replayed = replica_records(replica)
            assert [encode_record(r) for r in replayed] == list(HISTORY), keep
            replayed_fold = fold_records(replayed)
            assert delivers(replayed_fold) == expected and replayed_fold.unmatched == 0
        assert resumed == set(range(len(HISTORY) + 1))  # every resume point was hit

    def test_a_frame_split_by_a_rotation_keeps_its_durable_first_stretch(self):
        # 256-byte segments: HISTORY needs several stretches.  Fail the
        # write of each data stretch and of each rotation header in turn.
        clean = StandbyReplica(disk=SimulatedDisk(), segment_bytes=256)
        clean.receive(frame_of(0, *HISTORY))
        writes = clean.disk.writes - 1  # appends the frame cost (minus the first header)
        assert clean.journal.rotations >= 2
        for nth in range(1, writes + 1):
            for keep in (0, 5, 40, 10_000):
                disk = PrefixFaultDisk()
                replica = StandbyReplica(disk=disk, segment_bytes=256)
                disk.fail_at(nth, keep)
                assert replica.receive(frame_of(0, *HISTORY)) == 0
                assert replica.receive(frame_of(0, *HISTORY)) == 1
                replayed = replica_records(replica)
                assert [encode_record(r) for r in replayed] == list(HISTORY), (nth, keep)
                assert delivers(replica.fold.result) == {1: 2, 3: 0}
                assert replica.journal.unsynced_bytes == 0

    def test_two_faults_in_a_row_still_converge(self):
        disk = PrefixFaultDisk()
        replica = StandbyReplica(disk=disk)
        size = len(HISTORY[0]) + len(HISTORY[1])
        disk.fail_at(1, keep=size + 3)  # two whole records and a bit
        assert replica.receive(frame_of(0, *HISTORY)) == 0
        assert replica._resume == 2
        disk.fail_at(1, keep=0)  # the resend's rotation header fails
        assert replica.receive(frame_of(0, *HISTORY)) == 0
        assert replica._resume == 2
        assert replica.receive(frame_of(0, *HISTORY)) == 1
        assert replica.journal_write_failures == 2
        assert [encode_record(r) for r in replica_records(replica)] == list(HISTORY)

    def test_later_frames_wait_behind_the_failed_one(self):
        disk = PrefixFaultDisk()
        replica = StandbyReplica(disk=disk)
        replica.receive(frame_of(1, publish(2)))  # early: buffered
        disk.fail_at(1, keep=0)
        assert replica.receive(frame_of(0, publish(1))) == 0
        assert replica.records_applied == 0
        assert replica.receive(frame_of(0, publish(1))) == 2  # drains the buffer too
        assert [r.message_id for r in replica_records(replica)] == [1, 2]

    def test_malformed_records_are_counted_once_however_often_the_frame_comes(self):
        disk = PrefixFaultDisk()
        replica = StandbyReplica(disk=disk)
        bad = publish(9) + b"\x00"
        disk.fail_at(1, keep=1)
        assert replica.receive(frame_of(0, publish(1), bad, publish(2))) == 0
        assert replica.malformed_records == 0
        assert replica.receive(frame_of(0, publish(1), bad, publish(2))) == 1
        assert replica.malformed_records == 1 and replica.records_applied == 2


class TestTheReplicaCompactsAtAShippedCheckpoint:
    def test_a_checkpoint_in_the_middle_of_a_frame_applies_in_order(self):
        disk = SimulatedDisk()
        disk.create("journal-of-someone-else.00000000.seg")  # same disk, another name
        disk.create("other.00000000.seg")
        replica = StandbyReplica(disk=disk, segment_bytes=256)
        replica.receive(frame_of(0, *HISTORY))
        assert len(replica.journal.segments) > 2
        assert replica.receive(frame_of(1, publish(4), checkpoint(1, 4), publish(5), deliver(4))) == 2
        assert replica.records_applied == len(HISTORY) + 4
        # The fold: the snapshot, then what followed it — in that order.
        assert delivers(replica.fold.result) == {1: 0, 4: 1, 5: 0}
        # The disk: nothing of this journal's name older than the snapshot
        # segment (a 256-byte segment is full after it: the suffix rotated).
        oldest = replica.journal.segments[0]
        assert disk.read(oldest, SEGMENT_HEADER_SIZE) == checkpoint(1, 4)
        assert len(replica.journal.segments) == 2
        kinds = [r.kind.name for r in replica_records(replica)]
        assert kinds == ["CHECKPOINT", "PUBLISH", "DELIVER"]
        assert len(replica.journal.record_locations) == 3
        assert replica.journal.checkpoints == 1
        # Files of other names on the shared disk are not this journal's.
        assert disk.exists("other.00000000.seg")
        assert disk.exists("journal-of-someone-else.00000000.seg")
        assert delivers(fold_records(replica_records(replica))) == {1: 0, 4: 1, 5: 0}

    def test_the_replica_holds_the_shipped_bytes_of_the_checkpoint(self):
        replica = StandbyReplica()
        snapshot = checkpoint(1, 2)
        replica.receive(frame_of(0, publish(1), publish(2), snapshot))
        assert replica.disk.read(replica.journal.current_segment, SEGMENT_HEADER_SIZE) == snapshot

    def test_a_write_fault_on_the_way_deletes_nothing_and_the_resend_compacts(self):
        # Fail the compaction's rotation header (1st write of the resend
        # frame), then its CHECKPOINT append (2nd), at several prefixes.
        for nth in (1, 2):
            for keep in (0, 4, 10_000):
                disk = PrefixFaultDisk()
                replica = StandbyReplica(disk=disk)
                replica.receive(frame_of(0, *HISTORY))
                before = disk.snapshot()
                disk.fail_at(nth, keep)
                assert replica.receive(frame_of(1, checkpoint(1, 3), deliver(3))) == 1
                survivors = {n: d for n, d in disk.snapshot().items() if n in before}
                assert survivors == before, (nth, keep)  # the old history is all there
                assert replica.receive(frame_of(1, checkpoint(1, 3), deliver(3))) == 2
                assert delivers(replica.fold.result) == {1: 0, 3: 1}
                assert delivers(fold_records(replica_records(replica))) == {1: 0, 3: 1}
                assert replica.journal.unsynced_bytes == 0
