"""Tests for ship-frame wire format and the fault-injectable link."""

import pytest

from repro.replication import ShipFrame, SimulatedLink, decode_frame, encode_frame
from repro.rng import RandomStreams, make_generator, stable_hash


def frame(sequence=0, epoch=1, records=(b"alpha", b"beta")):
    return ShipFrame(sequence=sequence, epoch=epoch, records=tuple(records))


class TestWireFormat:
    def test_round_trip(self):
        original = frame(sequence=7, epoch=3)
        assert decode_frame(encode_frame(original)) == original

    def test_empty_body_round_trips(self):
        original = frame(records=())
        assert decode_frame(encode_frame(original)) == original

    def test_record_order_preserved(self):
        records = tuple(bytes([i]) * (i + 1) for i in range(10))
        decoded = decode_frame(encode_frame(frame(records=records)))
        assert decoded.records == records

    def test_truncated_frame_rejected(self):
        wire = encode_frame(frame())
        assert decode_frame(wire[:-1]) is None
        assert decode_frame(wire[: len(wire) // 2]) is None
        assert decode_frame(b"") is None

    def test_trailing_garbage_rejected(self):
        wire = encode_frame(frame())
        assert decode_frame(wire + b"x") is None

    def test_any_flipped_body_bit_caught_by_crc(self):
        wire = bytearray(encode_frame(frame()))
        wire[-1] ^= 0x40
        assert decode_frame(bytes(wire)) is None

    def test_corrupted_length_header_rejected(self):
        wire = bytearray(encode_frame(frame()))
        wire[8] ^= 0xFF  # body-length field
        assert decode_frame(bytes(wire)) is None

    def test_any_flipped_header_bit_caught_by_crc(self):
        # The CRC covers sequence, epoch and body_len: a bit flip in the
        # 16-byte header must never decode as a different valid frame
        # (regression: a flipped sequence bit once decoded frame N as a
        # valid frame N+1, double-applying records on the standby).
        wire = encode_frame(frame(sequence=5, epoch=3))
        for byte in range(16):
            for bit in range(8):
                mutated = bytearray(wire)
                mutated[byte] ^= 1 << bit
                assert decode_frame(bytes(mutated)) is None, (byte, bit)

    def test_flipped_epoch_bit_rejected_outright(self):
        # A corrupted fencing epoch must not reach the standby at all —
        # an inflated epoch would otherwise poison its fencing floor.
        wire = bytearray(encode_frame(frame(sequence=0, epoch=1)))
        wire[4] ^= 0x80  # high bit of the epoch field
        assert decode_frame(bytes(wire)) is None


class TestLinkDelivery:
    def test_nothing_due_before_the_delay(self):
        link = SimulatedLink(RandomStreams(0), delay=0.01)
        assert link.send(b"frame", now=0.0)
        assert link.deliver_due(0.005) == []
        assert link.in_flight == 1
        assert link.deliver_due(0.01) == [b"frame"]
        assert link.in_flight == 0

    def test_delivery_order_matches_send_order(self):
        link = SimulatedLink(RandomStreams(0), delay=0.01)
        for i in range(5):
            link.send(bytes([i]), now=i * 0.001)
        assert link.deliver_due(1.0) == [bytes([i]) for i in range(5)]

    def test_drop_next_eats_exactly_n_frames(self):
        link = SimulatedLink(RandomStreams(0), delay=0.0)
        link.drop_next(2)
        assert not link.send(b"a", now=0.0)
        assert not link.send(b"b", now=0.0)
        assert link.send(b"c", now=0.0)
        assert link.deliver_due(0.0) == [b"c"]
        assert link.frames_dropped == 2

    def test_corrupt_next_flips_one_bit(self):
        link = SimulatedLink(RandomStreams(0), delay=0.0)
        wire = encode_frame(frame())
        link.corrupt_next(1)
        link.send(wire, now=0.0)
        (delivered,) = link.deliver_due(0.0)
        assert delivered != wire
        assert len(delivered) == len(wire)
        # The CRC covers the whole frame, header included: any single
        # flipped bit makes the frame undecodable, never a different frame.
        assert decode_frame(delivered) is None
        assert link.frames_corrupted == 1

    def test_reorder_next_lands_behind_its_successor(self):
        link = SimulatedLink(RandomStreams(0), delay=0.01)
        link.reorder_next(1)
        link.send(b"first", now=0.0)
        link.send(b"second", now=0.001)
        delivered = link.deliver_due(1.0)
        assert delivered == [b"second", b"first"]
        assert link.frames_reordered == 1

    def test_add_delay_applies_only_inside_the_window(self):
        link = SimulatedLink(RandomStreams(0), delay=0.01)
        link.add_delay(0.1, until=0.05)
        link.send(b"slow", now=0.0)  # inside the window: 0.11 total
        link.send(b"fast", now=0.06)  # window closed: 0.01
        assert link.deliver_due(0.08) == [b"fast"]
        assert link.deliver_due(0.12) == [b"slow"]

    def test_fault_count_validation(self):
        link = SimulatedLink(RandomStreams(0))
        for method in (link.drop_next, link.corrupt_next, link.reorder_next):
            with pytest.raises(ValueError):
                method(0)
        with pytest.raises(ValueError):
            link.add_delay(0.0, until=1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimulatedLink(RandomStreams(0), delay=-0.01)

    def test_same_seed_corrupts_identically(self):
        wire = encode_frame(frame())
        outputs = []
        for _ in range(2):
            link = SimulatedLink(RandomStreams(42), delay=0.0)
            link.corrupt_next(2)
            link.send(wire, now=0.0)
            link.send(wire, now=0.0)
            outputs.append(link.deliver_due(0.0))
        assert outputs[0] == outputs[1]
        # Each flip is drawn from the named stream, position first, then
        # bit: creating the stream at the first corruption keeps every draw.
        rng = make_generator([42, stable_hash("link-faults")])
        expected = []
        for _ in range(2):
            flipped = bytearray(wire)
            position = int(rng.integers(0, len(wire)))
            flipped[position] ^= 1 << int(rng.integers(0, 8))
            expected.append(bytes(flipped))
        assert outputs[0] == expected
