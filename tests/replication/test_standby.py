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
