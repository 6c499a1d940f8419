"""Record format v2: raw bodies beside a small JSON header.

A record is ``u32 length | u32 crc | u8 kind | u32 meta_len | meta | blobs``:
``meta`` is the canonical JSON payload with every message body replaced by
its byte length, ``blobs`` those bodies back to back.  Pinned here: the
layout itself (frames built by hand with ``struct``), the round trip in both
directions, every way declared lengths can fail to tile the blob section,
that all three readers check the segment version, and what probing after
damage can and cannot surface now that bodies are no longer inert hex.
"""

import hashlib
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_encode_once import MESSAGES, OWED

from repro.broker import Broker
from repro.broker.message import Message
from repro.durability import (
    Journal,
    JournalRecord,
    JournalTailer,
    LiveEntry,
    RecordKind,
    SimulatedDisk,
    SyncPolicy,
    fold_records,
    scan_disk,
)
from repro.durability.journal import (
    BODY_PREFIX_SIZE,
    RECORD_HEADER_SIZE,
    SEGMENT_HEADER_SIZE,
    SEGMENT_VERSION,
    durable_key,
    encode_message,
    encode_record,
)
from repro.durability.recovery import _try_parse
from repro.replication import ShipFrame, StandbyReplica, encode_frame
from repro.rng import RandomStreams

QUEUE = "orders"


def canonical(meta):
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def frame(kind, meta, blobs=b"", meta_len=None):
    """A record built from the layout alone, with a correct CRC."""
    if not isinstance(meta, bytes):
        meta = canonical(meta)
    declared = len(meta) if meta_len is None else meta_len
    body = struct.pack(">BI", kind, declared) + meta + blobs
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def publish_payload(message, owed=()):
    payload = {
        "domain": "queue",
        "dest": message.topic,
        "msg": encode_message(message),
        "mid": message.message_id,
    }
    if owed:
        payload["owed"] = list(owed)
    return payload


def checkpoint_payload(messages, owed=()):
    return {
        "entries": [
            LiveEntry(
                domain="topic" if owed else "queue",
                destination=message.topic,
                message_fields=encode_message(message),
                delivers=position,
                owed=list(owed),
            ).to_payload()
            for position, message in enumerate(messages)
        ]
    }


BODILESS = st.fixed_dictionaries(
    {
        "domain": st.sampled_from(["queue", "topic"]),
        "dest": st.sampled_from([QUEUE, "prices/€"]),
        "mid": st.integers(0, 2**40),
    },
    optional={
        "consumer": st.one_of(st.integers(0, 2**40), st.text(max_size=8)),
        "reason": st.sampled_from(["acked", "dead-lettered", "dropped"]),
    },
)
RECORDS = st.one_of(
    st.builds(
        JournalRecord,
        st.just(RecordKind.PUBLISH),
        st.builds(publish_payload, MESSAGES, OWED),
    ),
    st.builds(
        JournalRecord,
        st.sampled_from([RecordKind.DELIVER, RecordKind.ACK, RecordKind.EXPIRE]),
        BODILESS,
    ),
    st.builds(
        JournalRecord,
        st.just(RecordKind.CHECKPOINT),
        st.builds(checkpoint_payload, st.lists(MESSAGES, max_size=5), OWED),
    ),
)


def bodies_of(record):
    if record.kind is RecordKind.PUBLISH:
        return [record.payload["msg"]["body"]]
    if record.kind is RecordKind.CHECKPOINT:
        return [entry["msg"]["body"] for entry in record.payload["entries"]]
    return []


class TestRecordFormatV2:
    @settings(max_examples=200, deadline=None)
    @given(record=RECORDS)
    def test_round_trip_in_both_directions(self, record):
        encoded = encode_record(record)
        parsed = _try_parse(encoded, 0)
        assert parsed == (record, len(encoded))
        assert encode_record(parsed[0]) == encoded
        assert all(type(body) is bytes for body in bodies_of(parsed[0]))
        # Nothing of a body is in ``meta``: the blob section is the bodies.
        blobs = b"".join(bodies_of(record))
        assert encoded.endswith(blobs)
        (meta_len,) = struct.unpack_from(">I", encoded, RECORD_HEADER_SIZE + 1)
        assert len(encoded) == RECORD_HEADER_SIZE + BODY_PREFIX_SIZE + meta_len + len(blobs)

    def test_the_layout_is_the_documented_one(self):
        message = Message(topic=QUEUE, properties={"n": 1}, body=b"\x00\xffraw")
        payload = publish_payload(message)
        meta = {**payload, "msg": {**payload["msg"], "body": 5}}
        by_hand = frame(RecordKind.PUBLISH.value, meta, b"\x00\xffraw")
        assert encode_record(JournalRecord(RecordKind.PUBLISH, payload)) == by_hand
        ack = {"domain": "queue", "dest": QUEUE, "mid": 7, "reason": "acked"}
        assert encode_record(JournalRecord(RecordKind.ACK, ack)) == frame(3, ack)

    def test_a_fresh_segment_declares_version_2(self):
        disk = SimulatedDisk()
        journal = Journal(disk)
        assert SEGMENT_VERSION == 2
        header = disk.read(journal.current_segment)[:SEGMENT_HEADER_SIZE]
        assert header == struct.pack(">4sHI", b"RJNL", 2, 0)

    def test_checkpoint_bodies_tile_in_entry_order(self):
        meta = {"entries": [{"msg": {"mid": 1, "body": 2}}, {"msg": {"mid": 2, "body": 3}}]}
        record, end = _try_parse(frame(5, meta, b"aabbb"), 0)
        assert [entry["msg"]["body"] for entry in record.payload["entries"]] == [b"aa", b"bbb"]
        assert end == len(frame(5, meta, b"aabbb"))

    # -- lengths that do not tile the blob section ---------------------
    @pytest.mark.parametrize("blobs", [b"", b"abc", b"abcde", b"abcd" * 2])
    def test_publish_length_must_match_the_blob_section(self, blobs):
        meta = {"domain": "queue", "dest": QUEUE, "mid": 1, "msg": {"mid": 1, "body": 4}}
        assert _try_parse(frame(1, meta, b"abcd"), 0) is not None
        assert _try_parse(frame(1, meta, blobs), 0) is None

    @pytest.mark.parametrize(
        "lengths", [(2, 2), (1, 3), (3, 3), (2, 4), (5, 5), (0, 0), (6, 0)]
    )
    def test_checkpoint_lengths_must_sum_to_the_blob_section(self, lengths):
        def entries(sizes):
            return {"entries": [{"msg": {"mid": i, "body": n}} for i, n in enumerate(sizes)]}

        assert _try_parse(frame(5, entries((2, 3)), b"aabbb"), 0) is not None
        assert _try_parse(frame(5, entries(lengths), b"aabbb"), 0) is None

    @pytest.mark.parametrize("length", [-1, True, False, 4.0, "4", None, [4], 10**30])
    def test_length_must_be_a_non_negative_int(self, length):
        meta = {"domain": "queue", "dest": QUEUE, "mid": 1, "msg": {"mid": 1, "body": length}}
        assert _try_parse(frame(1, meta, b"abcd"), 0) is None
        assert _try_parse(frame(1, meta), 0) is None  # nor with nothing to tile
        checkpoint = {"entries": [{"msg": {"mid": 1, "body": length}}]}
        assert _try_parse(frame(5, checkpoint, b"abcd"), 0) is None

    def test_meta_len_past_the_record_end(self):
        meta = canonical({"domain": "queue", "dest": QUEUE, "mid": 1})
        assert _try_parse(frame(4, meta), 0) is not None
        assert _try_parse(frame(4, meta, meta_len=len(meta) + 1), 0) is None
        assert _try_parse(frame(4, meta, meta_len=2**32 - 1), 0) is None

    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_trailing_bytes_after_a_bodiless_kind(self, kind):
        meta = {"domain": "queue", "dest": QUEUE, "mid": 1}
        assert _try_parse(frame(kind, meta), 0) is not None
        assert _try_parse(frame(kind, meta, b"\x00"), 0) is None
        # Not even when a field named like a body length would cover them.
        lying = {**meta, "msg": {"body": 1}}
        assert _try_parse(frame(kind, lying, b"\x00"), 0) is None

    def test_too_short_for_a_body_prefix(self):
        for body in (b"", b"\x03", b"\x03\x00\x00\x00"):
            record = struct.pack(">II", len(body), zlib.crc32(body)) + body
            assert _try_parse(record + b"\x00" * 16, 0) is None

    def test_unknown_kind_bad_json_and_non_object_meta(self):
        meta = {"domain": "queue", "dest": QUEUE, "mid": 1}
        assert _try_parse(frame(9, meta), 0) is None
        assert _try_parse(frame(3, b'{"mid":'), 0) is None
        assert _try_parse(frame(3, b"\xff\xfe{}"), 0) is None
        assert _try_parse(frame(3, b"[1,2]"), 0) is None

    def test_meta_padded_with_json_whitespace_is_rejected(self):
        # Decided in PR 18: ``meta`` must be the JSON value and nothing
        # else.  Padding is valid JSON and the hand-made CRC is right, but
        # such a record could never re-encode to the bytes it was parsed
        # from — the property shipping rests on — so no reader accepts it.
        meta = canonical({"domain": "queue", "dest": QUEUE, "mid": 1})
        assert _try_parse(frame(3, meta), 0) is not None
        for padded in (meta + b" ", b" " + meta, meta + b"\n", b"\t" + meta + b"\r\n"):
            json.loads(padded)  # (valid JSON all the same)
            assert _try_parse(frame(3, padded), 0) is None, padded
        publish = canonical({"domain": "queue", "dest": QUEUE, "mid": 1, "msg": {"body": 2}})
        assert _try_parse(frame(1, publish, b"ab"), 0) is not None
        assert _try_parse(frame(1, publish + b" ", b"ab"), 0) is None
        # A second value after the first is not padding either.
        assert _try_parse(frame(3, meta + meta), 0) is None

    # -- no "body" key, no blob ----------------------------------------
    def test_message_without_a_body_key_carries_no_blob(self):
        publish = {"domain": "queue", "dest": QUEUE, "mid": 1, "msg": {"mid": 1}}
        record, _end = _try_parse(frame(1, publish), 0)
        assert record.payload == publish
        assert encode_record(record) == frame(1, publish)
        assert _try_parse(frame(1, publish, b"x"), 0) is None
        checkpoint = {"entries": [{"msg": {"mid": 1}}, {"msg": {"mid": 2, "body": 1}}]}
        record, _end = _try_parse(frame(5, checkpoint, b"x"), 0)
        assert record.payload["entries"][0]["msg"] == {"mid": 1}
        assert record.payload["entries"][1]["msg"]["body"] == b"x"
        assert encode_record(record) == frame(5, checkpoint, b"x")

    def test_schema_malformed_but_well_tiled_still_parses_and_the_fold_reports_it(self):
        shapes = [
            (1, {"domain": "queue", "dest": QUEUE, "mid": 1}),  # no "msg"
            (1, {"domain": "queue", "dest": QUEUE, "mid": 1, "msg": "text"}),
            (5, {"entries": [{"bogus": True}, 7]}),
            (5, {"entries": "not a list"}),
        ]
        for kind, meta in shapes:
            parsed = _try_parse(frame(kind, meta), 0)
            assert parsed is not None, meta
            assert encode_record(parsed[0]) == frame(kind, meta)
            assert fold_records([parsed[0]]).malformed, meta
            assert _try_parse(frame(kind, meta, b"x"), 0) is None, meta


# ----------------------------------------------------------------------
# The segment version is checked by every reader
# ----------------------------------------------------------------------
def foreign_segment(version, index):
    """A well-formed segment of another format version, one record long."""
    body = b"\x03" + canonical({"domain": "queue", "dest": QUEUE, "mid": 1})
    record = struct.pack(">II", len(body), zlib.crc32(body)) + body  # the v1 shape
    return struct.pack(">4sHI", b"RJNL", version, index) + record


def put(disk, name, data):
    disk.create(name)
    disk.append(name, data)
    disk.sync(name)


def publish(journal, n, body=b""):
    message = Message(topic=QUEUE, properties={"n": n}, body=body)
    journal.log_publish("queue", QUEUE, message, now=n * 1e-3)
    return message


def numbers(records):
    return [record.payload["msg"]["props"]["n"] for record in records]


@pytest.mark.parametrize("version", [1, 3])
class TestSegmentVersion:
    def test_sole_segment(self, version):
        disk = SimulatedDisk(RandomStreams(0))
        name, data = "journal.00000000.seg", foreign_segment(version, 0)
        put(disk, name, data)
        tailer = JournalTailer(disk)
        assert tailer.poll() == []  # the newest segment: wait, never skip

        scan = scan_disk(disk)
        assert scan.records == [] and scan.torn_tail is None
        assert [(q.segment, q.start, q.end, q.reason) for q in scan.quarantined] == [
            (name, 0, len(data), f"unsupported segment version {version}")
        ]
        assert disk.read(name) == data  # neither truncated nor deleted

        journal = Journal(disk)  # starts the next segment, never appends here
        assert journal.tail_repaired == name
        assert journal.current_segment == "journal.00000001.seg"
        publish(journal, 1)
        assert disk.read(name) == data
        broker = Broker(journal=journal)
        broker.queues.create(QUEUE)
        broker.recover(reconnect_subscribers=False)
        report = broker.last_recovery
        assert not report.clean and report.tail_repaired == name
        assert report.quarantined[0].reason == f"unsupported segment version {version}"
        assert report.requeued == 1
        json.dumps(report.to_dict())

        assert numbers(tailer.poll()) == [1]  # sealed now: skipped whole
        assert tailer.bytes_skipped == len(data)

    def test_sealed_middle_segment(self, version):
        disk = SimulatedDisk(RandomStreams(0))
        first = Journal(disk)
        publish(first, 0)
        name, data = "journal.00000001.seg", foreign_segment(version, 1)
        put(disk, name, data)
        second = Journal(disk)
        assert second.tail_repaired == name
        assert second.current_segment == "journal.00000002.seg"
        publish(second, 2)

        scan = scan_disk(disk)
        assert numbers(scan.records) == [0, 2]
        assert [(q.segment, q.start, q.end) for q in scan.quarantined] == [
            (name, 0, len(data))
        ]
        assert disk.read(name) == data
        tailer = JournalTailer(disk)
        assert numbers(tailer.poll()) == [0, 2]
        assert tailer.bytes_skipped == len(data)

    def test_tail_segment(self, version):
        disk = SimulatedDisk(RandomStreams(0))
        publish(Journal(disk), 0)
        name, data = "journal.00000001.seg", foreign_segment(version, 1)
        put(disk, name, data)
        before = disk.snapshot()

        tailer = JournalTailer(disk)
        assert numbers(tailer.poll()) == [0]
        assert tailer.poll() == [] and tailer.bytes_skipped == 0  # waiting on the tail

        scan = scan_disk(disk)
        assert numbers(scan.records) == [0]
        assert scan.torn_tail is None
        assert scan.quarantined[0].reason == f"unsupported segment version {version}"
        assert disk.snapshot() == before  # the scan repaired nothing away


# ----------------------------------------------------------------------
# Record-shaped bodies: inert on an intact log, best-effort after damage
# ----------------------------------------------------------------------
class TestRecordShapedBodies:
    """A raw body may itself be a byte-exact record.  Parsing is by extent,
    so an intact log never looks inside it; only probing past damage in the
    *enclosing* record can land on it (DESIGN §11, the resynchronisation
    trade-off)."""

    def log(self):
        disk = SimulatedDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always())
        victim = publish(journal, 0)
        forged = encode_record(
            JournalRecord(
                RecordKind.ACK,
                {"domain": "queue", "dest": QUEUE, "mid": victim.message_id, "reason": "acked"},
            )
        )
        publish(journal, 1, body=forged)
        publish(journal, 2, body=b"\x00not a record\xff" + forged)
        publish(journal, 3)
        return disk, journal, forged

    def test_round_trips_and_folds_nothing_extra_through_recovery(self):
        disk, journal, forged = self.log()
        scan = scan_disk(disk)
        assert [record.kind for record in scan.records] == [RecordKind.PUBLISH] * 4
        assert scan.records[1].payload["msg"]["body"] == forged
        assert scan.records[2].payload["msg"]["body"].endswith(forged)
        assert not scan.quarantined and scan.torn_tail is None
        broker = Broker(journal=journal)
        broker.queues.create(QUEUE)
        broker.recover(reconnect_subscribers=False)
        assert broker.last_recovery.clean
        assert broker.last_recovery.requeued == 4  # the victim was not "acked"

    def test_through_the_tailer_and_a_standby(self):
        disk, journal, forged = self.log()
        tailed = JournalTailer(disk).poll()
        assert [record.kind for record in tailed] == [RecordKind.PUBLISH] * 4
        assert tailed[1].payload["msg"]["body"] == forged
        standby = StandbyReplica()
        shipped = ShipFrame(0, 1, tuple(record.encoded for record in tailed))
        standby.receive(encode_frame(shipped))
        assert standby.records_applied == 4 and standby.malformed_records == 0
        assert standby.live_messages == 4
        assert standby.disk.snapshot() == disk.snapshot()
        promotion = standby.promote(now=1.0, epoch=2)
        assert promotion.succeeded and promotion.recovery.requeued == 4
        json.dumps(promotion.to_dict())  # reports never carry raw bodies

    @pytest.mark.parametrize("where", ["length", "crc", "kind", "meta", "blob"])
    def test_damage_in_the_enclosing_record_is_reported_and_costs_only_that_record(
        self, where
    ):
        disk, journal, forged = self.log()
        enclosing = journal.record_locations[1]
        offset = enclosing.offset + {
            "length": 3,
            "crc": 5,
            "kind": RECORD_HEADER_SIZE,
            "meta": RECORD_HEADER_SIZE + BODY_PREFIX_SIZE + 2,
            "blob": enclosing.length - 2,
        }[where]
        image = bytearray(disk.read(enclosing.segment))
        image[offset] ^= 0x04
        damaged = SimulatedDisk.from_snapshot({enclosing.segment: bytes(image)})

        broker = Broker(journal=Journal(damaged))
        broker.queues.create(QUEUE)
        broker.recover(reconnect_subscribers=False)
        report = broker.last_recovery
        json.dumps(report.to_dict())
        assert not report.clean
        assert report.quarantined[0].start == enclosing.offset
        assert report.quarantined[0].reason == "mid-log corruption"
        # No undamaged record is lost ...
        publishes = [r for r in scan_disk(damaged).records if r.kind is RecordKind.PUBLISH]
        assert numbers(publishes) == [0, 2, 3]
        # ... and what follows a quarantined range is best-effort: the probe
        # tries every offset, so unless the flip hit the embedded bytes
        # themselves it resumes on them — inside the damaged record.
        if where != "blob":
            embedded = enclosing.end - len(forged)
            assert report.quarantined[0].end == embedded
            assert report.records_by_kind == {"PUBLISH": 3, "ACK": 1}
        else:
            assert report.quarantined[0].end == enclosing.end
            assert report.records_by_kind == {"PUBLISH": 3}


class TestGoldenWal:
    """Format stability: a fixed script lands fixed bytes.

    The digest is a literal on purpose — computed once, on the commit
    before the ``log_*`` calls began assembling their own headers — so a
    change to key order, separators, escaping, number formatting, framing
    or segment layout fails here even if writer and reader move together.
    """

    SHA256 = "cf805e30b481ff437a46879cf65a23673675c6ecdbf5a360a284140af1137261"

    def play(self):
        disk = SimulatedDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=512)
        digest = hashlib.sha256()

        def absorb():
            for segment in journal.segments:
                digest.update(segment.encode("ascii"))
                digest.update(disk.read(segment))

        queued = Message(
            topic=QUEUE, correlation_id='c"7\\', properties={"n": 1, "tier": "gold", "hot": True},
            body=bytes(range(256)), priority=7, timestamp=1.5, expiration=9.25, message_id=11,
        )
        plain = Message(topic=QUEUE, message_id=12)
        fanned = Message(
            topic="prices/€", properties={"px": 101.5, "sym": "€UR"}, body=bytearray(b"tick"),
            timestamp=3, message_id=2**64 + 13,
        )
        owed = [durable_key("alice", "prices/€"), durable_key('b"ob', "prices/€")]
        journal.log_publish("queue", QUEUE, queued, now=0.001)
        journal.log_publish("queue", QUEUE, plain, now=0.002)
        journal.log_publish("topic", "prices/€", fanned, owed=owed, now=0.003)
        journal.log_publish("topic", "prices/€", Message(topic="prices/€", message_id=14), now=0.004)
        journal.log_deliver("queue", QUEUE, 11, "worker-1", now=0.005)
        journal.log_deliver("queue", QUEUE, 12, 3, now=0.006)
        journal.log_deliver("topic", "prices/€", 2**64 + 13, owed[0], now=0.007)
        for mid, reason in enumerate(
            ["acked", "dead_letter", "dropped", "transferred", "expired"], start=20
        ):
            journal.log_ack("queue", QUEUE, mid, reason=reason, now=0.008)
        journal.log_ack("queue", QUEUE, 11, now=0.009)
        journal.log_expire("queue", QUEUE, 12, now=0.010)
        assert journal.rotations >= 2
        absorb()
        entry = LiveEntry(
            domain="topic", destination="prices/€", message_fields=encode_message(fanned),
            delivers=1, owed=owed[1:],
        )
        journal.checkpoint([entry.to_payload()], now=0.011)
        journal.log_expire("topic", "prices/€", 2**64 + 13, now=0.012)
        absorb()
        return digest.hexdigest(), disk

    def test_a_fixed_script_lands_the_recorded_bytes(self):
        digest, disk = self.play()
        assert digest == self.SHA256
        scan = scan_disk(disk)  # ... and a reader takes every one of them
        assert scan.torn_tail is None and not scan.quarantined
        assert [record.kind for record in scan.records] == [RecordKind.CHECKPOINT, RecordKind.EXPIRE]
