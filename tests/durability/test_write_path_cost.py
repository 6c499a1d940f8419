"""The write-ahead path costs the record, not the log (counts, not times).

A ``SimulatedDisk`` that counts its calls pins the complexity of the
per-record operations: an append under ``SyncPolicy.always()`` is one
``length``, one ``append`` and one ``sync`` whether 2 or 200 sealed
segments sit beside the current one, the canonical JSON encoder runs only
for a record's free-form parts (never for a DELIVER, ACK or EXPIRE), and a
tailer poll lists the
directory at most once — not at all unless a file was created or deleted
since its last listing —, reads each segment it touches once, copies only
bytes it has not consumed, and makes no disk call when nothing changed
since it last ran the log dry.
"""

import json
from collections import Counter
from unittest import mock

import pytest

from repro.broker.message import Message
from repro.durability import Journal, JournalTailer, SimulatedDisk, SyncPolicy
from repro.durability import journal as journal_module
from repro.durability import tail as tail_module
from repro.rng import RandomStreams

QUEUE = "orders"


class CountingDisk(SimulatedDisk):
    def __init__(self, streams=None):
        super().__init__(streams)
        self.calls = Counter()
        self.reads = []
        self.bytes_read = 0

    def reset(self):
        self.calls.clear()
        self.reads.clear()
        self.bytes_read = 0

    def list(self):
        self.calls["list"] += 1
        return super().list()

    def append(self, name, data):
        self.calls["append"] += 1
        return super().append(name, data)

    def sync(self, name):
        self.calls["sync"] += 1
        super().sync(name)

    def length(self, name):
        self.calls["length"] += 1
        return super().length(name)

    def synced_length(self, name):
        self.calls["synced_length"] += 1
        return super().synced_length(name)

    def read(self, name, start=0):
        self.calls["read"] += 1
        data = super().read(name, start)
        self.reads.append(name)
        self.bytes_read += len(data)
        return data


def publish(journal, n, body=64):
    message = Message(topic=QUEUE, properties={"n": n}, body=b"x" * body)
    journal.log_publish("queue", QUEUE, message, now=n * 1e-3)


def disk_with_sealed_segments(count):
    """A disk holding ``count`` sealed segments plus a roomy current one."""
    disk = CountingDisk(RandomStreams(0))
    small = Journal(disk, sync=SyncPolicy.always(), segment_bytes=256)
    n = 0
    while len(small.segments) <= count:
        publish(small, n)
        n += 1
    small.close()
    journal = Journal(disk, sync=SyncPolicy.always())  # resumes at the tail
    assert len(journal.segments) > count
    return disk, journal


def calls_of_one_append(sealed):
    disk, journal = disk_with_sealed_segments(sealed)
    publish(journal, 10_000)
    disk.reset()
    publish(journal, 10_001)
    calls = Counter(disk.calls)
    assert journal.unsynced_bytes == 0  # (itself walks the disk: after the count)
    return calls


class TestAppendIsConstantInLogLength:
    def test_append_under_always_costs_the_same_with_2_or_200_segments(self):
        few, many = calls_of_one_append(2), calls_of_one_append(200)
        assert few == many == Counter(length=1, append=1, sync=1)

    def test_a_dirty_neighbour_takes_the_commit_through_the_general_walk(self):
        # A predecessor under ``never`` left unsynced bytes in a sealed
        # segment: the first commit flushes both, oldest first, and the
        # next one is back to three calls.
        disk = CountingDisk(RandomStreams(0))
        relaxed = Journal(disk, sync=SyncPolicy.never(), segment_bytes=256)
        while len(relaxed.segments) < 2:
            publish(relaxed, 0)
        journal = Journal(disk, sync=SyncPolicy.always())
        synced = []

        def sync(name):
            synced.append(name)
            CountingDisk.sync(disk, name)

        disk.sync = sync
        publish(journal, 1)
        assert synced == journal.segments and len(synced) == 2
        assert journal.unsynced_bytes == 0
        disk.reset()
        publish(journal, 2)
        assert Counter(disk.calls) == Counter(length=1, append=1, sync=1)

    def test_explicit_sync_tests_only_the_remembered_segments(self):
        disk, journal = disk_with_sealed_segments(200)
        relaxed = Journal(disk, sync=SyncPolicy.never())
        publish(relaxed, 1)
        disk.reset()
        relaxed.sync()
        assert disk.calls["list"] == 0
        assert disk.calls["length"] == disk.calls["synced_length"] == 1
        assert relaxed.unsynced_bytes == 0


class CountingEncoder(json.JSONEncoder):
    """The journal's canonical encoder, counting what it is handed."""

    def __init__(self):
        super().__init__(sort_keys=True, separators=(",", ":"))
        self.encoded = []

    def encode(self, o):
        self.encoded.append(o)
        return super().encode(o)


class TestTheEncoderRunsOnlyForFreeFormParts:
    """A record's header is assembled from fixed text; ``json`` sees the
    property section, an ``owed`` list and atoms of unusual type — one
    value at a time, never the record."""

    def encoded_by(self, call, *args, **kwargs):
        journal = Journal(SimulatedDisk(RandomStreams(0)))
        with mock.patch.object(journal_module, "_PAYLOAD_ENCODER", CountingEncoder()) as encoder:
            getattr(journal, call)(*args, **kwargs)
        assert journal.records_appended == 1
        return encoder.encoded

    def test_deliver_ack_and_expire_never_reach_it(self):
        assert self.encoded_by("log_deliver", "queue", QUEUE, 7, "worker-1", now=0.5) == []
        assert self.encoded_by("log_deliver", "queue", QUEUE, 7, 3) == []
        assert self.encoded_by("log_ack", "queue", QUEUE, 7) == []
        assert self.encoded_by("log_ack", "queue", QUEUE, 2**70, reason="dead_letter") == []
        assert self.encoded_by("log_expire", "topic", 'prices/€"', -7) == []

    def test_publish_hands_it_the_property_section_and_the_owed_list_only(self):
        bare = Message(topic=QUEUE, body=b"x" * 64, timestamp=1.5, expiration=2.5)
        assert self.encoded_by("log_publish", "queue", QUEUE, bare) == []
        tagged = Message(topic=QUEUE, correlation_id="c-1", properties={"n": 1, "tier": "gold"})
        assert self.encoded_by("log_publish", "queue", QUEUE, tagged) == [{"n": 1, "tier": "gold"}]
        assert self.encoded_by("log_publish", "topic", QUEUE, tagged, owed=("a|t", "b|t")) == [
            {"n": 1, "tier": "gold"},
            ["a|t", "b|t"],
        ]
        assert self.encoded_by("log_publish", "topic", QUEUE, bare, owed=["a|t"]) == [["a|t"]]

    def test_an_atom_of_unusual_type_goes_through_it_alone(self):
        assert self.encoded_by("log_deliver", "queue", QUEUE, 7, True) == [True]
        assert self.encoded_by("log_ack", "queue", QUEUE, 7.0, reason=float("inf")) == [
            float("inf")
        ]
        late = Message(topic=QUEUE, expiration=float("inf"), timestamp=3)
        assert self.encoded_by("log_publish", "queue", QUEUE, late) == [float("inf")]

    def test_strings_are_quoted_through_the_module_global(self):
        # ... which is how test_encode_once runs both quoting functions.
        quoted = []

        def quote(text):
            quoted.append(text)
            return json.encoder.py_encode_basestring_ascii(text)

        journal = Journal(SimulatedDisk(RandomStreams(0)))
        with mock.patch.object(journal_module, "encode_basestring_ascii", quote):
            journal.log_ack("queue", QUEUE, 7, reason="dropped")
        assert sorted(quoted) == ["dropped", QUEUE, "queue"]


class TestAmplificationIsConstant:
    def test_a_publish_record_is_its_body_plus_a_constant(self):
        # Format v2 stores the body raw, so the bytes a PUBLISH adds to the
        # log beyond its body do not grow with the body (v1 hex-doubled it).
        # The one size-dependent part is the decimal length in the header.
        def overhead(size):
            disk = SimulatedDisk(RandomStreams(0))
            journal = Journal(disk, sync=SyncPolicy.always())
            before = disk.length(journal.current_segment)
            message = Message(
                topic=QUEUE, properties={"n": 1}, body=b"\xab" * size, message_id=7
            )
            journal.log_publish("queue", QUEUE, message)
            written = disk.length(journal.current_segment) - before
            assert written == disk.bytes_written - before
            return written - size - len(str(size))

        assert overhead(0) == overhead(64) == overhead(16 * 1024) < 192


class TestPollReadsOnlyWhatIsNew:
    def unread(self, disk, tailer, journal):
        held, offset = tailer.position
        segments = journal.segments
        if held is None:
            return sum(SimulatedDisk.length(disk, s) for s in segments)
        later = [s for s in segments if s >= held]
        return sum(SimulatedDisk.length(disk, s) for s in later) - offset

    def test_first_poll_reads_each_segment_once(self):
        disk = CountingDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=512)
        for n in range(40):
            publish(journal, n)
        assert len(journal.segments) > 5
        tailer = JournalTailer(disk)
        unread = self.unread(disk, tailer, journal)
        disk.reset()
        records = tailer.poll()
        assert len(records) == 40
        assert disk.calls["list"] == 1
        assert sorted(disk.reads) == journal.segments  # each exactly once
        assert disk.bytes_read <= unread

    def test_later_poll_copies_only_the_new_records(self):
        disk = CountingDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always())
        for n in range(50):
            publish(journal, n)
        tailer = JournalTailer(disk)
        tailer.poll()
        before = SimulatedDisk.length(disk, journal.current_segment)
        for n in range(50, 53):
            publish(journal, n)
        appended = SimulatedDisk.length(disk, journal.current_segment) - before
        disk.reset()
        records = tailer.poll()
        assert len(records) == 3
        # No file was created or deleted since the first poll's listing.
        assert disk.calls["list"] == 0 and disk.calls["read"] == 1
        assert disk.bytes_read == appended
        assert b"".join(record.encoded for record in records) == SimulatedDisk.read(
            disk, journal.current_segment, before
        )

    @pytest.mark.parametrize("page", [1, 2, 7])
    def test_paginated_poll_lists_once_and_reads_each_touched_segment_once(self, page):
        disk = CountingDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=512)
        for n in range(30):
            publish(journal, n)
        tailer = JournalTailer(disk)
        seen = 0
        while True:
            unread = self.unread(disk, tailer, journal)
            disk.reset()
            chunk = tailer.poll(max_records=page)
            # One listing serves every page: nothing creates or deletes.
            assert disk.calls["list"] == (1 if seen == 0 else 0)
            assert len(disk.reads) == len(set(disk.reads))
            assert disk.bytes_read <= unread
            if not chunk:
                break
            seen += len(chunk)
        assert seen == 30

    def test_lag_bytes_lists_once_and_measures_only_from_the_position_on(self):
        disk = CountingDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=512)
        for n in range(40):
            publish(journal, n)
        tailer = JournalTailer(disk)
        tailer.poll()
        disk.reset()
        assert tailer.lag_bytes == 0
        assert disk.calls["list"] == 0 and disk.calls["length"] == 1  # the poll's listing
        sealed, n = len(journal.segments), 40
        while len(journal.segments) == sealed:  # until a rotation creates a file
            publish(journal, n)
            n += 1
        disk.reset()
        assert tailer.lag_bytes > 0
        assert disk.calls["list"] == 1


# ----------------------------------------------------------------------
# The replicated pair: cost per commit, not per tick or per record
# ----------------------------------------------------------------------
from repro.broker.queues import QueueConsumer  # noqa: E402
from repro.replication import ReplicatedPair, ReplicationConfig  # noqa: E402

DISK_CALLS = ("create", "append", "sync", "read", "length", "synced_length",
              "truncate", "delete", "list", "exists")


def count_calls(disk):
    """Count ``disk``'s calls from outside, on the instance — the way the
    lifecycle benchmark's tracer does, so the product must keep reaching
    them through attribute lookup at call time."""
    calls = Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    for name in DISK_CALLS:
        setattr(disk, name, counted(name, getattr(disk, name)))
    return calls


def synced_pair(segment_bytes=64 * 1024, batch_size=16):
    config = ReplicationConfig(
        mode="sync", batch_size=batch_size, ship_interval=0.001, link_delay=0.0005,
        segment_bytes=segment_bytes,
    )
    pair = ReplicatedPair(config, seed=3)
    queue = pair.primary.queues.create(QUEUE)
    consumer = QueueConsumer("worker")
    queue.attach(consumer)
    return pair, queue, consumer


def settle(pair, now):
    while pair.acked_records(now) < pair.journal.records_appended:
        now += 0.001
        pair.tick(now)
    return now


class TestIdleTicksAreFree:
    def test_ticks_with_nothing_pending_touch_neither_disk(self):
        pair, queue, consumer = synced_pair()
        now = 0.0
        for n in range(5):
            queue.send(Message(topic=QUEUE, properties={"n": n}, body=b"x" * 64), now)
            consumer.ack(consumer.receive())
            now = settle(pair, now)
        primary, standby = count_calls(pair.primary_disk), count_calls(pair.standby.disk)
        for _ in range(50):
            now += 0.001
            pair.tick(now)
        assert not primary and not standby
        assert pair.standby.records_applied == pair.journal.records_appended == 15
        # ... and the first record after the lull still ships.
        queue.send(Message(topic=QUEUE, properties={"n": 5}), now)
        now = settle(pair, now)
        assert pair.standby.records_applied == 17  # PUBLISH + DELIVER
        # The journal handed the shipper those two records: nothing read back.
        assert primary["list"] == 0 and primary["read"] == 0


class TestAFrameIsOneCommitOnTheStandby:
    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_k_records_cost_one_write_and_one_fsync(self, k):
        pair, _queue, _consumer = synced_pair()
        for n in range(k):
            pair.journal.log_ack("queue", QUEUE, n)
        standby = count_calls(pair.standby.disk)
        settle(pair, 0.0)
        assert pair.frames_shipped == 1 and pair.standby.records_applied == k
        assert standby["append"] == 1 and standby["sync"] == 1
        assert standby["create"] == standby["list"] == standby["read"] == 0

    def test_a_rotation_inside_the_frame_costs_one_more_of_each(self):
        pair, _queue, _consumer = synced_pair(segment_bytes=512)
        for n in range(16):  # ~70 B each: the frame straddles rotations
            pair.journal.log_ack("queue", QUEUE, n)
        standby = count_calls(pair.standby.disk)
        settle(pair, 0.0)
        assert pair.frames_shipped == 1 and pair.standby.records_applied == 16
        crossed = pair.standby.journal.rotations
        assert crossed == pair.journal.rotations >= 1
        # Per stretch one write + one fsync; per rotation the header write
        # and the fsync that seals the retiring segment.
        assert standby["append"] == (crossed + 1) + crossed
        assert standby["sync"] == (crossed + 1) + crossed
        assert standby["create"] == crossed
        assert pair.standby.disk.snapshot() == pair.primary_disk.snapshot()

    def test_the_replica_is_the_primary_byte_for_byte_at_small_segments(self):
        pair, queue, consumer = synced_pair(segment_bytes=512, batch_size=5)
        now = 0.0
        for n in range(60):
            queue.send(Message(topic=QUEUE, properties={"n": n}, body=b"x" * (n * 7 % 90)), now)
            if n % 3:
                consumer.ack(consumer.receive())
            now += 0.001
            pair.tick(now)
        settle(pair, now)
        assert len(pair.journal.segments) > 10
        assert pair.standby.disk.snapshot() == pair.primary_disk.snapshot()
        assert pair.standby.journal.record_locations == pair.journal.record_locations
        assert pair.standby.journal.records_appended == pair.journal.records_appended
        # Fewer commits than records: that is the point.
        assert pair.standby.disk.writes < pair.primary_disk.writes
        assert pair.standby.journal.syncs < pair.journal.syncs


# ----------------------------------------------------------------------
# The per-record constant: what a lifecycle pays besides its bytes
# ----------------------------------------------------------------------
import dis  # noqa: E402
import enum  # noqa: E402
import sys  # noqa: E402

BUILD_SET = dis.opmap["BUILD_SET"]


def durable_lifecycle(journal, n):
    """The records of one ``durable_queue`` message: PUBLISH of a 256 B
    body with two properties, DELIVER, ACK."""
    message = Message(
        topic=QUEUE, properties={"tenant": "t3", "attempt": 1}, body=b"x" * 256, message_id=n
    )
    journal.log_publish("queue", QUEUE, message, now=n * 1e-3)
    journal.log_deliver("queue", QUEUE, n, "worker", now=n * 1e-3)
    journal.log_ack("queue", QUEUE, n, now=n * 1e-3)


class TestALifecyclePaysNoPerRecordToll:
    """Counted through wrappers and an opcode trace on a journal that has
    written one lifecycle already (its route is remembered).  Before the
    encoder was prebuilt and routes remembered, a lifecycle made 17
    ``_atom`` calls, one ``JSONEncoder.iterencode``, four ``enum``
    descriptor calls (the kind byte of three records and the delivery
    mode) and built three sets (the sync decision of three appends)."""

    @pytest.fixture(scope="class")
    def counts(self):
        disk = CountingDisk(RandomStreams(0))
        journal = Journal(disk, sync=SyncPolicy.always())
        durable_lifecycle(journal, 1)
        disk.reset()
        counts = Counter()

        def counted(name, function):
            def call(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return call

        def opcodes(frame, event, arg):
            if event == "opcode" and frame.f_code.co_code[frame.f_lasti] == BUILD_SET:
                counts["BUILD_SET"] += 1
            return opcodes

        def calls(frame, event, arg):
            if frame.f_code.co_filename != journal_module.__file__:
                return None
            frame.f_trace_opcodes = True
            return opcodes

        previous = sys.gettrace()
        with mock.patch.object(
            json.JSONEncoder, "iterencode", counted("iterencode", json.JSONEncoder.iterencode)
        ), mock.patch.object(
            enum.property, "__get__", counted("enum.__get__", enum.property.__get__)
        ), mock.patch.object(journal_module, "_atom", counted("_atom", journal_module._atom)):
            sys.settrace(calls)
            try:
                durable_lifecycle(journal, 2)
            finally:
                sys.settrace(previous)
        assert journal.records_appended == 6
        return counts, Counter(disk.calls)

    def test_the_encoder_is_prebuilt(self, counts):
        assert counts[0]["iterencode"] == 0

    def test_the_sync_decision_builds_no_set(self, counts):
        assert counts[0]["BUILD_SET"] == 0

    def test_no_enum_descriptor_runs_on_the_write_path(self, counts):
        assert counts[0]["enum.__get__"] == 0

    def test_a_remembered_route_is_not_quoted_again(self, counts):
        # PUBLISH: mid, cid, exp, prio, topic, ts; DELIVER and ACK: two each.
        assert counts[0]["_atom"] == 10

    def test_the_disk_calls_are_the_same(self, counts):
        assert counts[1] == Counter(length=3, append=3, sync=3)


class TestTheShipperIsFed:
    """On a ``replicated_sync``-shaped drive (send, wait for the standby,
    receive, ack; a checkpoint every 500 messages) the shipper takes what
    the journal hands it: the primary's disk is read back, and the tailer
    parses, only at a rotation, a checkpoint and the first poll."""

    def test_the_primary_is_read_back_only_where_the_feed_cannot_vouch(self):
        pair, queue, consumer = synced_pair()
        messages = 2000
        polls = []
        poll = pair.tailer.poll
        pair.tailer.poll = lambda *args: polls.append(poll(*args)) or polls[-1]
        parses = Counter()
        real_parse = tail_module._try_parse

        def counted_parse(*args):
            parses["tailer"] += 1
            return real_parse(*args)

        primary = count_calls(pair.primary_disk)
        taken_before = pair.tailer.records_read
        now = 0.0
        with mock.patch.object(tail_module, "_try_parse", counted_parse):
            for n in range(messages):
                lsn = pair.journal.records_appended
                queue.send(Message(topic=QUEUE, properties={"n": n}, body=b"x" * 256), now)
                while pair.acked_records(now) <= lsn:
                    now += 0.001
                    pair.tick(now)
                consumer.ack(consumer.receive())
                now += 0.001
                pair.tick(now)
                if n % 500 == 499:
                    pair.checkpoint_primary(now)
            now = settle(pair, now)
        taken = pair.tailer.records_read - taken_before
        read_back = sum(len(records) for records in polls)
        fed_share = 1 - read_back / taken
        assert pair.standby.records_applied == taken
        assert pair.journal.rotations >= 10 and pair.journal.checkpoints == 4
        # Read back and parsed, the tailer would make ≥ 2 reads and ≥ 3
        # parses a message.
        assert primary["read"] <= 0.02 * messages, primary
        assert parses["tailer"] <= 0.05 * messages, parses
        assert fed_share > 0.95, f"{fed_share:.4f} of the records taken were fed"
