"""The write-ahead journal: wire format, rotation, sync policies, compaction."""

import gc

import pytest

from repro.broker import Broker
from repro.broker.message import DeliveryMode, Message
from repro.durability import (
    Journal,
    JournalWriteError,
    RecordKind,
    RecordLocation,
    SimulatedDisk,
    SyncPolicy,
)
from repro.durability.journal import (
    SEGMENT_HEADER_SIZE,
    decode_message,
    durable_key,
    encode_message,
)
from repro.durability.recovery import scan_disk
from repro.rng import RandomStreams


def journal(**kwargs):
    kwargs.setdefault("disk", SimulatedDisk(RandomStreams(0)))
    return Journal(**kwargs)


class TestWireFormat:
    def test_message_roundtrip_preserves_identity(self):
        message = Message(
            topic="orders",
            correlation_id="c-1",
            properties={"price": 9, "region": "EU"},
            body=b"\x00\xffpayload",
            priority=7,
            delivery_mode=DeliveryMode.PERSISTENT,
            timestamp=1.5,
            expiration=9.0,
        )
        restored = decode_message(encode_message(message))
        assert restored.message_id == message.message_id
        assert restored.topic == message.topic
        assert restored.correlation_id == message.correlation_id
        assert restored.properties == message.properties
        assert restored.body == message.body
        assert restored.priority == message.priority
        assert restored.expiration == message.expiration

    def test_appended_records_scan_back_verbatim(self):
        j = journal()
        message = Message(topic="q")
        j.log_publish("queue", "q", message)
        j.log_deliver("queue", "q", message.message_id, "c-1")
        j.log_ack("queue", "q", message.message_id, reason="acked")
        j.sync()
        scan = scan_disk(j.disk, j.name)
        assert [r.kind for r in scan.records] == [
            RecordKind.PUBLISH,
            RecordKind.DELIVER,
            RecordKind.ACK,
        ]
        assert scan.records[0].message_id == message.message_id
        assert scan.torn_tail is None
        assert not scan.quarantined

    def test_durable_key_is_restart_stable(self):
        assert durable_key("alice", "audit") == "alice|audit"


class TestRotation:
    def test_rotates_once_segment_fills(self):
        j = journal(segment_bytes=256)
        for i in range(20):
            j.log_publish("queue", "q", Message(topic="q", properties={"n": i}))
        assert len(j.segments) > 1
        assert j.rotations == len(j.segments) - 1
        # every record is still recovered across the segment chain
        j.sync()
        assert len(scan_disk(j.disk, j.name).records) == 20

    def test_segment_bytes_floor(self):
        with pytest.raises(ValueError):
            journal(segment_bytes=16)

    def test_reopen_resumes_newest_segment(self):
        disk = SimulatedDisk(RandomStreams(0))
        first = Journal(disk, segment_bytes=256)
        for i in range(20):
            first.log_publish("queue", "q", Message(topic="q", properties={"n": i}))
        first.close()
        second = Journal(disk, segment_bytes=256)
        assert second.current_segment == first.current_segment
        second.log_publish("queue", "q", Message(topic="q"))
        assert len(scan_disk(disk, second.name).records) == 21


class TestSyncPolicies:
    def test_always_leaves_nothing_unsynced(self):
        j = journal(sync=SyncPolicy.always())
        for _ in range(5):
            j.log_publish("queue", "q", Message(topic="q"))
        assert j.unsynced_bytes == 0
        assert j.syncs >= 5

    def test_group_commit_batches_syncs(self):
        j = journal(sync=SyncPolicy.group_commit(batch=4))
        for _ in range(3):
            j.log_publish("queue", "q", Message(topic="q"))
        assert j.unsynced_bytes > 0
        j.log_publish("queue", "q", Message(topic="q"))  # 4th triggers the fsync
        assert j.unsynced_bytes == 0

    def test_never_syncs_only_on_close(self):
        j = journal(sync=SyncPolicy.never())
        for _ in range(5):
            j.log_publish("queue", "q", Message(topic="q"))
        assert j.unsynced_bytes > 0
        j.close()
        assert j.unsynced_bytes == 0

    def test_parse(self):
        assert SyncPolicy.parse("always").mode == "always"
        assert SyncPolicy.parse("never").amortized_batch == float("inf")
        assert SyncPolicy.parse("group:8").batch == 8
        with pytest.raises(ValueError):
            SyncPolicy.parse("sometimes")
        with pytest.raises(ValueError):
            SyncPolicy.parse("group:zero")

    def test_validation(self):
        with pytest.raises(ValueError):
            SyncPolicy(mode="group_commit", batch=0)
        with pytest.raises(ValueError):
            SyncPolicy(mode="group_commit", interval=-1.0)


class TestWriteFailures:
    def test_failed_append_raises_and_marks_tail_dirty(self):
        j = journal()
        j.log_publish("queue", "q", Message(topic="q"))
        j.disk.fail_writes(1)
        with pytest.raises(JournalWriteError):
            j.log_publish("queue", "q", Message(topic="q"))
        assert j.write_failures == 1
        segments_before = len(j.segments)
        # the next append rotates away from the possibly-partial tail
        j.log_publish("queue", "q", Message(topic="q"))
        assert len(j.segments) == segments_before + 1
        # and the salvageable history is exactly the two committed records
        j.sync()
        scan = scan_disk(j.disk, j.name)
        assert len(scan.records) == 2


    @staticmethod
    def _filled(seed):
        """A journal whose current segment is full: the next append rotates."""
        j = Journal(
            SimulatedDisk(RandomStreams(seed)), sync=SyncPolicy.always(), segment_bytes=256
        )
        committed = []
        while j.disk.length(j.current_segment) < j.segment_bytes:
            committed.append(len(committed))
            j.log_publish("queue", "q", Message(topic="q", properties={"n": committed[-1]}))
        return j, committed

    @pytest.mark.parametrize("seed", range(8))
    def test_fault_on_a_rotation_header_fails_fast_and_the_journal_moves_on(self, seed):
        # Regression: the fault escaped as a raw DiskWriteError and every
        # later append died on "file already exists" until a reopen.
        j, committed = self._filled(seed)
        j.disk.fail_writes(1)  # lands on the next segment's header
        with pytest.raises(JournalWriteError):
            j.log_publish("queue", "q", Message(topic="q", properties={"n": -1}))
        assert j.write_failures == 1
        torn = j.current_segment
        torn_bytes = j.disk.length(torn)
        assert torn_bytes <= SEGMENT_HEADER_SIZE
        for _ in range(3):
            committed.append(len(committed))
            j.log_publish("queue", "q", Message(topic="q", properties={"n": committed[-1]}))
        assert j.current_segment > torn  # a fresh, higher-numbered segment
        assert j.disk.length(torn) == torn_bytes  # history is never rewritten
        assert j.unsynced_bytes == 0

        j.disk.crash()
        broker = Broker(journal=Journal(j.disk, segment_bytes=256))
        queue = broker.queues.create("q")
        broker.recover(reconnect_subscribers=False)
        assert [m.properties["n"] for m, _ in queue._backlog] == committed
        report = broker.last_recovery
        if torn_bytes < SEGMENT_HEADER_SIZE:
            assert [(q.segment, q.reason) for q in report.quarantined] == [
                (torn, "bad segment header")
            ]
        else:  # the whole header landed before the error: an empty segment
            assert report.clean

    def test_fault_on_the_checkpoint_rotation_deletes_nothing(self):
        j, committed = self._filled(seed=1)
        before = j.disk.snapshot()
        j.disk.fail_writes(1)
        with pytest.raises(JournalWriteError):
            j.checkpoint([])
        assert j.write_failures == 1 and j.checkpoints == 0
        survivors = {name: data for name, data in j.disk.snapshot().items() if name in before}
        assert survivors == before  # the old history still recovers
        image = SimulatedDisk.from_snapshot(j.disk.snapshot())  # (a scan repairs)
        assert len(scan_disk(image, j.name).records) == len(committed)
        _lsn, deleted = j.checkpoint([])
        assert deleted == len(before) + 1  # the torn-header file goes with them
        assert [r.kind for r in scan_disk(j.disk, j.name).records] == [RecordKind.CHECKPOINT]


class TestCheckpoint:
    def test_checkpoint_compacts_history(self):
        j = journal(segment_bytes=256)
        live = []
        for i in range(12):
            message = Message(topic="q", properties={"n": i})
            j.log_publish("queue", "q", message)
            if i >= 10:
                live.append(
                    {
                        "domain": "queue",
                        "dest": "q",
                        "msg": encode_message(message),
                        "mid": message.message_id,
                        "delivers": 0,
                    }
                )
            else:
                j.log_ack("queue", "q", message.message_id)
        segments_before = len(j.segments)
        _lsn, deleted = j.checkpoint(live)
        assert deleted == segments_before
        assert len(j.segments) == 1
        scan = scan_disk(j.disk, j.name)
        assert [r.kind for r in scan.records] == [RecordKind.CHECKPOINT]
        assert len(scan.records[0].payload["entries"]) == 2
        assert j.checkpoints == 1
        assert j.segments_compacted == deleted


class TestTornHeaderResume:
    """A resumed tail segment with a torn/missing header must be repaired.

    Regression: scan used to truncate such a segment to 0 bytes and
    ``_open`` resumed appending into the headerless file — records
    synced and acknowledged there were then discarded wholesale by the
    *next* scan's header check (silent loss of committed data).
    """

    def _disk_with_one_record(self):
        disk = SimulatedDisk(RandomStreams(0))
        first = Journal(disk)
        first.log_publish("queue", "q", Message(topic="q", properties={"n": 0}))
        first.close()
        return disk

    def test_resume_on_empty_tail_segment_recreates_header(self):
        disk = self._disk_with_one_record()
        disk.create("journal.00000001.seg")  # crash left 0 of 10 header bytes
        second = Journal(disk)
        assert second.tail_repaired == "journal.00000001.seg"
        second.log_publish("queue", "q", Message(topic="q", properties={"n": 1}))
        second.close()
        # the committed record survives the next recovery scan
        scan = scan_disk(disk, second.name)
        assert len(scan.records) == 2
        assert scan.torn_tail is None

    def test_resume_on_partial_header_rotates_past_it(self):
        disk = self._disk_with_one_record()
        disk.create("journal.00000001.seg")
        disk.append("journal.00000001.seg", b"RJ")  # 2 of 10 header bytes
        second = Journal(disk)
        assert second.tail_repaired == "journal.00000001.seg"
        assert second.current_segment != "journal.00000001.seg"
        second.log_publish("queue", "q", Message(topic="q", properties={"n": 1}))
        second.close()
        scan = scan_disk(disk, second.name)
        assert len(scan.records) == 2
        # the headerless bytes are quarantined in place, not replayed
        assert [q.reason for q in scan.quarantined] == ["bad segment header"]

    def test_clean_resume_reports_no_repair(self):
        disk = self._disk_with_one_record()
        assert Journal(disk).tail_repaired is None


# ----------------------------------------------------------------------
# append_run / checkpoint_encoded: one body behind single and run appends
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.durability.journal import JournalRecord, _frame, encode_record  # noqa: E402


def ack_record(mid, pad=0):
    payload = {"domain": "queue", "dest": "q", "mid": mid, "reason": "x" * pad}
    return _frame(RecordKind.ACK, payload)


POLICIES = st.sampled_from(
    [SyncPolicy.always(), SyncPolicy.never(), SyncPolicy.group_commit(batch=3)]
)


class TestAppendRun:
    @settings(max_examples=150, deadline=None)
    @given(
        pads=st.lists(st.integers(0, 300), min_size=1, max_size=30),
        cuts=st.sets(st.integers(1, 29)),
        policy=POLICIES,
    )
    def test_any_partition_into_runs_lands_the_bytes_one_by_one_appends_would(
        self, pads, cuts, policy
    ):
        records = [ack_record(n, pad) for n, pad in enumerate(pads)]
        single = journal(segment_bytes=256, sync=policy)
        for record in records:
            single.append_encoded(record)
        runs = journal(segment_bytes=256, sync=policy)
        bounds = [0] + sorted(c for c in cuts if c < len(records)) + [len(records)]
        lsns = [
            runs.append_run(records[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
        assert lsns == bounds[:-1]  # each run returns the lsn of its first record
        assert runs.disk.snapshot() == single.disk.snapshot()
        assert runs.record_locations == single.record_locations
        assert runs.records_appended == single.records_appended == len(records)
        assert runs.rotations == single.rotations
        assert runs.disk.writes <= single.disk.writes
        if policy.mode == "always":
            assert runs.unsynced_bytes == single.unsynced_bytes == 0
            assert runs.syncs <= single.syncs
        single.close()
        runs.close()
        assert scan_disk(runs.disk).records == scan_disk(single.disk).records

    def test_a_run_in_one_segment_is_one_write_and_one_policy_decision(self):
        j = journal()
        writes, syncs = j.disk.writes, j.syncs
        assert j.append_run([ack_record(n) for n in range(16)]) == 0
        assert (j.disk.writes - writes, j.syncs - syncs) == (1, 1)
        assert j.records_appended == 16 and len(j.record_locations) == 16
        assert j.append_run([]) == 16  # nothing to do, nothing done
        assert (j.disk.writes - writes, j.syncs - syncs) == (1, 1)

    def test_a_failed_run_says_how_many_records_landed_whole(self):
        records = [ack_record(n) for n in range(6)]
        sizes = [len(r) for r in records]
        seen = set()
        for seed in range(40):
            j = journal(disk=SimulatedDisk(RandomStreams(seed)))
            start = j.disk.length(j.current_segment)
            j.disk.fail_writes(1)
            with pytest.raises(JournalWriteError) as caught:
                j.append_run(records)
            kept = j.disk.length(j.current_segment) - start
            whole = caught.value.records_written
            assert sum(sizes[:whole]) <= kept
            assert whole == len(records) or kept < sum(sizes[: whole + 1])
            # What landed is counted where it landed.  (Until PR 24 a failed
            # run left its whole records uncounted: the log then held more
            # records than ``records_appended`` said, and a sync-ack
            # watermark that counts shipped records ran ahead of the LSN.)
            assert j.records_appended == whole
            assert [loc.length for loc in j.record_locations] == sizes[:whole]
            assert j.record_locations == [] or j.record_locations[0].offset == start
            assert j.write_failures == 1
            seen.add(whole)
            # The rest, appended after them, completes the history once.
            j.append_run(records[whole:])
            j.close()
            assert [encode_record(r) for r in scan_disk(j.disk).records] == records
        assert len(seen) > 3

    def test_a_fault_on_a_later_stretch_counts_the_stretches_before_it(self):
        records = [ack_record(n, pad=60) for n in range(8)]  # ~130 B: 2-3 per segment
        clean = journal(segment_bytes=256)
        clean.append_run(records)
        assert clean.rotations >= 2
        j = journal(segment_bytes=256)
        append, calls = j.disk.append, []

        def third_append_fails(name, data):
            calls.append(name)
            if len(calls) == 3:  # stretch, header, *stretch*
                j.disk.fail_writes(1)
            return append(name, data)

        j.disk.append = third_append_fails
        with pytest.raises(JournalWriteError) as caught:
            j.append_run(records)
        first_stretch = j.records_appended
        assert first_stretch >= 1  # durable and counted: that write succeeded
        assert caught.value.records_written >= first_stretch
        j.append_run(records[caught.value.records_written :])
        j.close()
        assert [encode_record(r) for r in scan_disk(j.disk).records] == records

    def test_a_single_failed_append_reports_zero_or_one(self):
        for seed in range(12):
            j = journal(disk=SimulatedDisk(RandomStreams(seed)))
            j.disk.fail_writes(1)
            with pytest.raises(JournalWriteError) as caught:
                j.append_encoded(ack_record(1))
            assert caught.value.records_written in (0, 1)
            assert j.records_appended == caught.value.records_written


class TestRecordLocations:
    """Where records landed is kept as flat ints; the list of
    ``RecordLocation`` objects exists only when a reader asks for it."""

    @staticmethod
    def live_locations():
        return sum(isinstance(obj, RecordLocation) for obj in gc.get_objects())

    def test_appends_keep_no_location_object_until_one_is_asked_for(self):
        j = journal(segment_bytes=256)
        before = self.live_locations()
        for n in range(40):
            j.append_encoded(ack_record(n))
        j.append_run([ack_record(n) for n in range(40, 60)])
        assert j.rotations > 1
        assert self.live_locations() == before
        locations = j.record_locations
        assert len(locations) == j.records_appended == 60
        assert self.live_locations() == before + 60
        del locations
        assert self.live_locations() == before

    def test_the_locations_are_the_records_back_to_back_per_segment(self):
        j = journal(segment_bytes=256)
        records = [ack_record(n, pad=n % 7) for n in range(30)]
        for record in records:
            j.append_encoded(record)
        locations = j.record_locations
        assert [loc.length for loc in locations] == [len(r) for r in records]
        assert [j.disk.read(loc.segment)[loc.offset : loc.end] for loc in locations] == records
        assert [loc.segment for loc in locations] == sorted(loc.segment for loc in locations)
        j.checkpoint([])
        assert [loc.segment for loc in j.record_locations] == [j.current_segment]
        j.append_encoded(records[0])
        assert len(j.record_locations) == 2

    def test_a_failed_write_opens_a_new_run_and_every_location_reads_back(self):
        # A record's offset is the end of the record before it in its run,
        # so a run must have no gap: the dirt a partial write leaves behind
        # has to close the run, not sit inside it.
        for seed in range(20):
            j = journal(disk=SimulatedDisk(RandomStreams(seed)), segment_bytes=512)
            landed = []
            for n in range(24):
                record = ack_record(n, pad=n % 5)
                if n % 7 == 3:
                    j.disk.fail_writes(1)
                try:
                    j.append_encoded(record)
                except JournalWriteError as error:
                    landed.extend([record][: error.records_written])
                else:
                    landed.append(record)
            assert j.write_failures > 0 and len(j.record_locations) == len(landed)
            assert [
                j.disk.read(loc.segment)[loc.offset : loc.end] for loc in j.record_locations
            ] == landed


class TestCheckpointEncoded:
    def test_checkpoint_is_a_thin_caller_of_the_encoded_path(self):
        entries = [{"domain": "queue", "dest": "q", "mid": 7, "msg": {"mid": 7}, "delivers": 1}]
        a, b = journal(segment_bytes=256), journal(segment_bytes=256)
        for j in (a, b):
            for n in range(10):
                j.log_ack("queue", "q", n)
        encoded = encode_record(JournalRecord(RecordKind.CHECKPOINT, {"entries": entries}))
        assert a.checkpoint(entries, now=2.0) == b.checkpoint_encoded(encoded, now=2.0)
        assert a.disk.snapshot() == b.disk.snapshot()
        assert a.record_locations == b.record_locations and len(b.record_locations) == 1
        assert (a.checkpoints, a.segments_compacted, a.syncs, a.rotations) == (
            b.checkpoints, b.segments_compacted, b.syncs, b.rotations,
        )
        assert b.disk.read(b.current_segment, SEGMENT_HEADER_SIZE) == encoded

    def test_only_segments_of_this_journals_name_are_deleted(self):
        disk = SimulatedDisk(RandomStreams(0))
        other = Journal(disk, name="transfer-s0-a1", segment_bytes=256)
        mine = Journal(disk, name="journal", segment_bytes=256)
        for n in range(10):
            other.log_ack("queue", "q", n)
            mine.log_ack("queue", "q", n)
        theirs = {s: disk.read(s) for s in other.segments}
        encoded = encode_record(JournalRecord(RecordKind.CHECKPOINT, {"entries": []}))
        _lsn, deleted = mine.checkpoint_encoded(encoded)
        assert deleted >= 3 and mine.segments == [mine.current_segment]
        assert {s: disk.read(s) for s in other.segments} == theirs


# ----------------------------------------------------------------------
# Journal.commit: a scope's appends are one run
# ----------------------------------------------------------------------
from fault_disks import PrefixFaultDisk  # noqa: E402
from repro.durability.journal import JournalError  # noqa: E402

#: One ``log_*`` call each: (method, arguments after ``("queue", "q")``).
LOG_CALLS = st.one_of(
    st.tuples(st.just("log_publish"), st.binary(max_size=200)),
    st.tuples(st.just("log_deliver"), st.sampled_from(["c0", 7])),
    st.tuples(st.just("log_ack"), st.sampled_from(["acked", "dropped"])),
    st.tuples(st.just("log_expire"), st.none()),
    st.tuples(st.just("append_encoded"), st.integers(0, 300)),
)


def replay(j, calls, first=0, now=0.0):
    """Make each drawn call on ``j`` (message ids count up from
    ``first``); the LSNs they returned."""
    lsns = []
    for mid, (call, arg) in enumerate(calls, first):
        if call == "log_publish":
            message = Message(topic="q", body=arg, message_id=mid, timestamp=0.5)
            lsns.append(j.log_publish("queue", "q", message, now=now))
        elif call == "log_expire":
            lsns.append(j.log_expire("queue", "q", mid, now=now))
        elif call == "append_encoded":
            lsns.append(j.append_encoded(ack_record(mid, arg), now=now))
        else:
            lsns.append(getattr(j, call)("queue", "q", mid, arg, now=now))
    return lsns


class TestCommitScope:
    """Property suite run by the check_static equivalence gate."""

    @settings(max_examples=150, deadline=None)
    @given(
        calls=st.lists(LOG_CALLS, min_size=1, max_size=24),
        cuts=st.sets(st.integers(0, 24)),
        policy=POLICIES,
    )
    def test_any_interleaving_in_scopes_lands_the_bytes_a_scopeless_twin_lands(
        self, calls, cuts, policy
    ):
        plain = journal(segment_bytes=256, sync=policy)
        plain_lsns = replay(plain, calls)
        scoped = journal(segment_bytes=256, sync=policy)
        bounds = sorted({0, len(calls)} | {c for c in cuts if c < len(calls)})
        scoped_lsns = []
        for a, b in zip(bounds, bounds[1:]):
            writes, decisions = scoped.disk.writes, scoped.syncs
            rotations = scoped.rotations
            with scoped.commit() as scope:
                scoped_lsns += replay(scoped, calls[a:b], first=a)
                assert scoped.disk.writes == writes  # held, not written
            assert scope.torn == []
            stretches = 1 + scoped.rotations - rotations
            assert scoped.disk.writes - writes <= 2 * stretches  # data + headers
            assert scoped.syncs - decisions <= 2 * stretches
        assert scoped_lsns == plain_lsns
        assert scoped.disk.snapshot() == plain.disk.snapshot()
        assert scoped.record_locations == plain.record_locations
        assert scoped.records_appended == plain.records_appended == len(calls)
        assert scoped.rotations == plain.rotations
        assert scoped.syncs <= plain.syncs
        if policy.mode == "always":
            assert scoped.unsynced_bytes == plain.unsynced_bytes == 0
        plain.close()
        scoped.close()
        assert scan_disk(scoped.disk).records == scan_disk(plain.disk).records

    @pytest.mark.parametrize(
        "policy, syncs",
        [(SyncPolicy.always(), 1), (SyncPolicy.group_commit(8), 1), (SyncPolicy.never(), 0)],
    )
    def test_a_scope_in_one_segment_is_one_write_and_one_policy_decision(self, policy, syncs):
        j = journal(sync=policy)
        writes, before = j.disk.writes, j.syncs
        with j.commit(now=1.0) as scope:
            for mid in range(16):
                j.log_publish("queue", "q", Message(topic="q", message_id=mid))
                j.log_deliver("queue", "q", mid, "c0")
            assert j.records_appended == 0 and j.disk.writes == writes
        assert (j.disk.writes - writes, j.syncs - before) == (1, syncs)
        assert j.records_appended == 32 and scope.torn == []
        kinds = [r.kind.name for r in scan_disk(j.disk).records]
        assert kinds == ["PUBLISH", "DELIVER"] * 16

    def test_an_empty_scope_touches_nothing(self):
        j = journal()
        calls = (j.disk.writes, j.disk.syncs, j.disk.changes)
        with j.commit() as scope:
            pass
        assert (j.disk.writes, j.disk.syncs, j.disk.changes) == calls and scope.torn == []

    def test_at_every_byte_one_record_tears_and_the_rest_is_committed_and_synced(self):
        records = [ack_record(n, pad=3 * n) for n in range(7)]
        ends = [sum(len(r) for r in records[: n + 1]) for n in range(7)]
        torn_positions = set()
        for policy in (SyncPolicy.always(), SyncPolicy.group_commit(4), SyncPolicy.never()):
            for keep in range(ends[-1] + 1):
                disk = PrefixFaultDisk()
                j = Journal(disk, sync=policy)
                j.log_expire("queue", "q", 99)  # a predecessor, written through
                disk.fail_at(1, keep)
                with j.commit() as scope:
                    for record in records:
                        j.append_encoded(record)
                # The first record the prefix does not hold whole; the last
                # when it holds them all (the write failed all the same).
                expected = min(sum(end <= keep for end in ends), 6)
                assert scope.torn == [expected], (policy.mode, keep)
                torn_positions.add(expected)
                assert j.write_failures == 1
                survivors = [r for n, r in enumerate(records) if n != expected]
                if keep == ends[-1]:
                    survivors = records  # whole on the log, though its write failed
                written = [encode_record(r) for r in scan_disk(disk).records][1:]
                assert written == survivors, (policy.mode, keep)
                # Counted where it landed: a location per record a scan finds.
                assert j.records_appended == 1 + len(survivors) == len(j.record_locations)
                for location in j.record_locations[1:]:
                    raw = disk.read(location.segment)[location.offset : location.end]
                    assert raw in records
                if policy.mode == "never":
                    assert j.syncs == 0
                else:
                    assert j.unsynced_bytes == 0, (policy.mode, keep)
        assert torn_positions == set(range(7))

    def test_a_fault_on_the_retry_rotation_tears_the_next_record_too(self):
        records = [ack_record(n) for n in range(5)]
        disk = PrefixFaultDisk()
        j = Journal(disk)
        size = len(records[0])
        disk.fail_at(1, keep=size + 3)  # record 0 whole, record 1 cut

        append, headers = disk.append, []

        def header_fails_once(name, data):
            if len(data) == SEGMENT_HEADER_SIZE:
                headers.append(name)
                if len(headers) == 1:
                    disk.fail_at(1, keep=4)
            return append(name, data)

        disk.append = header_fails_once
        with j.commit() as scope:
            for record in records:
                j.append_encoded(record)
        # As five single appends would: the one cut, then the one that
        # met the torn segment header; the next rotates past both.
        assert scope.torn == [1, 2]
        assert j.write_failures == 2 and j.unsynced_bytes == 0
        written = [encode_record(r) for r in scan_disk(disk).records]
        assert written == [records[0], records[3], records[4]]
        assert j.records_appended == 3

    def test_a_block_that_raises_still_flushes_and_reraises(self):
        j = journal()
        with pytest.raises(KeyError):
            with j.commit():
                j.log_ack("queue", "q", 1)
                j.log_ack("queue", "q", 2)
                raise KeyError("the caller's bug")
        assert j.records_appended == 2 and j.unsynced_bytes == 0
        assert [r.message_id for r in scan_disk(j.disk).records] == [1, 2]
        with j.commit():  # and the scope is closed: the next one opens
            j.log_ack("queue", "q", 3)
        assert j.records_appended == 3

    def test_a_scope_admits_only_appends(self):
        j = journal()
        encoded = encode_record(JournalRecord(RecordKind.CHECKPOINT, {"entries": []}))
        refused = (
            lambda: j.commit().__enter__(),
            lambda: j.checkpoint([]),
            lambda: j.checkpoint_encoded(encoded),
            j.sync,
            j.close,
        )
        with j.commit():
            j.log_ack("queue", "q", 1)
            for call in refused:
                with pytest.raises(JournalError, match="inside a commit scope"):
                    call()
        assert j.records_appended == 1 and j.checkpoints == 0 and j.rotations == 0
        j.close()  # outside, all of them work again
        assert j.checkpoint([])[1] == 1

