"""Tests for the journal tailer: rotation, torn headers, compaction."""

import pytest

from repro.broker import Broker
from repro.broker.message import Message
from repro.broker.queues import QueueConsumer
from repro.durability import Journal, JournalTailer, SimulatedDisk, SyncPolicy, scan_disk
from repro.durability.journal import SEGMENT_HEADER_SIZE, SEGMENT_MAGIC
from repro.durability.recovery import collect_live_entries
from repro.rng import RandomStreams

QUEUE = "orders"


def small_journal(segment_bytes=512, seed=0):
    disk = SimulatedDisk(RandomStreams(seed))
    journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=segment_bytes)
    return disk, journal


def publish(journal, i, body=64):
    message = Message(topic=QUEUE, properties={"n": i}, body=b"x" * body)
    journal.log_publish("queue", QUEUE, message, now=i * 1e-3)


class TestBasicTailing:
    def test_each_record_exactly_once_in_order(self):
        disk, journal = small_journal()
        tailer = JournalTailer(disk)
        seen = []
        for i in range(20):
            publish(journal, i)
            seen.extend(tailer.poll())
        seen.extend(tailer.poll())
        expected = scan_disk(disk).records
        assert [r.payload for r in seen] == [r.payload for r in expected]
        assert tailer.poll() == []

    def test_max_records_paginates_without_loss(self):
        disk, journal = small_journal()
        for i in range(10):
            publish(journal, i)
        tailer = JournalTailer(disk)
        seen = []
        while True:
            chunk = tailer.poll(max_records=3)
            if not chunk:
                break
            assert len(chunk) <= 3
            seen.extend(chunk)
        assert len(seen) == len(scan_disk(disk).records)

    def test_negative_max_records_rejected(self):
        disk, _journal = small_journal()
        with pytest.raises(ValueError):
            JournalTailer(disk).poll(max_records=-1)

    def test_empty_disk_returns_nothing(self):
        tailer = JournalTailer(SimulatedDisk())
        assert tailer.poll() == []


class TestRotationBoundaries:
    def test_reader_crosses_segments_without_skip_or_double_read(self):
        # A tiny segment size forces rotation every couple of records;
        # polling after every single append drives the reader across each
        # boundary in the worst possible interleaving.
        disk, journal = small_journal(segment_bytes=256)
        tailer = JournalTailer(disk)
        seen = []
        for i in range(30):
            publish(journal, i)
            seen.extend(tailer.poll())
        assert len(journal.segments) > 1  # rotation actually happened
        expected = scan_disk(disk).records
        assert [r.payload for r in seen] == [r.payload for r in expected]
        assert tailer.segments_crossed >= len(journal.segments) - 1

    def test_mid_rotation_poll_waits_for_the_new_segment_header(self):
        # Simulate the writer mid-rotation: a new newest segment exists
        # but its header is only partially on disk.  The tailer must wait
        # (return nothing new), never skip into garbage.
        disk, journal = small_journal(segment_bytes=4096)
        for i in range(3):
            publish(journal, i)
        tailer = JournalTailer(disk)
        assert len(tailer.poll()) == 3
        torn = f"{journal.name}.{len(journal.segments):06d}.seg"
        disk.create(torn)
        disk.append(torn, SEGMENT_MAGIC[:2])  # half a magic prefix
        disk.sync(torn)
        assert tailer.poll() == []
        position = tailer.position
        assert tailer.poll() == []  # stable: still waiting, not advancing
        assert tailer.position == position

    def test_partial_record_at_the_tail_is_never_returned(self):
        disk, journal = small_journal(segment_bytes=4096)
        publish(journal, 0)
        tailer = JournalTailer(disk)
        assert len(tailer.poll()) == 1
        # A torn append: only a prefix of the next record reaches disk.
        newest = journal.segments[-1]
        disk.append(newest, b"\x00\x00\x00\x99partial")
        disk.sync(newest)
        assert tailer.poll() == []


class TestCompaction:
    def _journalled_broker(self, segment_bytes=512):
        disk = SimulatedDisk(RandomStreams(0))
        journal = Journal(
            disk, sync=SyncPolicy.always(), segment_bytes=segment_bytes
        )
        broker = Broker(journal=journal)
        queue = broker.queues.create(QUEUE)
        consumer = QueueConsumer("worker")
        queue.attach(consumer)
        return disk, journal, broker, queue, consumer

    def test_checkpoint_deleting_held_segment_repositions_reader(self):
        disk, journal, broker, queue, consumer = self._journalled_broker()
        tailer = JournalTailer(disk)
        for i in range(10):
            queue.send(Message(topic=QUEUE, properties={"n": i}), now=i * 1e-3)
            delivery = consumer.receive()
            if delivery is not None and i % 2 == 0:
                consumer.ack(delivery)
        tailer.poll(max_records=2)  # positioned early, in a doomed segment
        held, _ = tailer.position
        journal.checkpoint(collect_live_entries(broker), now=1.0)
        assert held not in journal.segments  # compaction deleted it
        resumed = tailer.poll()
        assert tailer.repositions == 1
        # The reposition lands on the CHECKPOINT snapshot: the records the
        # tailer skipped are subsumed, and what it reads from here on
        # matches a fresh scan of the compacted disk.
        from repro.durability.journal import RecordKind

        assert resumed[0].kind is RecordKind.CHECKPOINT
        expected = scan_disk(disk).records
        assert [r.payload for r in resumed] == [r.payload for r in expected]

    def test_tailing_continues_cleanly_after_the_reposition(self):
        disk, journal, broker, queue, consumer = self._journalled_broker()
        tailer = JournalTailer(disk)
        for i in range(6):
            queue.send(Message(topic=QUEUE, properties={"n": i}), now=i * 1e-3)
        tailer.poll(max_records=1)
        journal.checkpoint(collect_live_entries(broker), now=1.0)
        tailer.poll()
        for i in range(6, 12):
            queue.send(Message(topic=QUEUE, properties={"n": i}), now=i * 1e-3)
        post = tailer.poll()
        # Each send journals PUBLISH + DELIVER (a consumer is attached):
        # exactly the new appends, once each.
        assert len(post) == 12
        assert tailer.poll() == []


class TestIdlePolls:
    """A poll that can have nothing new costs nothing (the disk's change
    counters stand in for ``st_mtime``); pagination is never mistaken for it."""

    def test_a_poll_after_the_log_ran_dry_does_not_touch_the_disk(self, monkeypatch):
        disk, journal = small_journal()
        for i in range(5):
            publish(journal, i)
        tailer = JournalTailer(disk)
        assert len(tailer.poll()) == 5
        for name in ("list", "read", "length"):
            monkeypatch.setattr(disk, name, None)  # any disk call would raise
        for _ in range(3):
            assert tailer.poll() == []
            assert tailer.poll(max_records=2) == []

    def test_a_page_cut_short_by_max_records_is_not_dry(self):
        disk, journal = small_journal()
        for i in range(4):
            publish(journal, i)
        tailer = JournalTailer(disk)
        assert len(tailer.poll(max_records=4)) == 4  # exactly the log, but not known dry
        assert tailer.poll(max_records=0) == []  # reads nothing, proves nothing
        publish(journal, 4)
        assert len(tailer.poll(max_records=0)) == 0
        assert len(tailer.poll()) == 1

    def test_every_kind_of_disk_change_wakes_the_tailer(self):
        disk, journal = small_journal(segment_bytes=4096)
        publish(journal, 0)
        tailer = JournalTailer(disk)
        assert len(tailer.poll()) == 1
        newest = journal.current_segment
        # A partial record: the poll looks (and waits) ...
        disk.append(newest, b"\x00\x00\x00\x99partial")
        assert tailer.poll() == [] and tailer._dry_at == disk.changes
        # ... the writer rotates away from it: the sealed garbage is skipped.
        journal._tail_dirty = True
        publish(journal, 1)
        assert [r.payload["msg"]["props"]["n"] for r in tailer.poll()] == [1]
        assert tailer.bytes_skipped == len(b"\x00\x00\x00\x99partial")
        # Compaction deletes the held segment: reposition on the snapshot.
        journal.checkpoint([], now=1.0)
        assert [r.kind.name for r in tailer.poll()] == ["CHECKPOINT"]
        assert tailer.repositions == 1

    def test_negative_max_records_is_rejected_even_when_idle(self):
        disk, journal = small_journal()
        publish(journal, 0)
        tailer = JournalTailer(disk)
        tailer.poll()
        with pytest.raises(ValueError):
            tailer.poll(max_records=-1)


# ----------------------------------------------------------------------
# A tailer that remembers (listing, dryness) and is fed what the journal
# wrote ≡ one that does neither
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.durability import JournalWriteError  # noqa: E402

TAIL_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 200)),
        st.tuples(st.just("failed_append"), st.integers(0, 200)),
        st.tuples(st.just("commit"), st.integers(0, 9)),
        st.tuples(st.just("rotate"), st.just(0)),
        st.tuples(st.just("checkpoint"), st.integers(0, 3)),
        st.tuples(st.just("tear_tail"), st.just(0)),
        st.tuples(st.just("corrupt"), st.integers(0, 7)),
        st.tuples(st.just("truncate"), st.integers(0, 7)),
        st.tuples(st.just("crash"), st.just(0)),
        st.tuples(st.just("poll"), st.one_of(st.none(), st.integers(0, 4))),
    ),
    min_size=1,
    max_size=40,
)


def twin_of(tailer):
    """A tailer at the same position that remembers nothing else."""
    twin = JournalTailer(tailer.disk, tailer.name)
    twin._segment, twin._offset = tailer.position
    for counter in ("records_read", "segments_crossed", "repositions", "bytes_skipped"):
        setattr(twin, counter, getattr(tailer, counter))
    return twin


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(["always", "never"]),
    segment_bytes=st.sampled_from([256, 4096]),
    steps=TAIL_STEPS,
)
def test_a_long_lived_tailer_returns_what_a_twin_without_memory_returns(
    seed, policy, segment_bytes, steps
):
    """The tailer is also the journal's follower (again after each
    reopen): a ``poll`` step with no page size takes its bytes with
    ``poll_encoded``, which must be what the unfed twin reads.  Small
    segments rotate at almost every append; large ones let the feed run."""
    disk = SimulatedDisk(RandomStreams(seed))
    tailer = JournalTailer(disk)

    def reopen():
        journal = Journal(disk, sync=SyncPolicy.parse(policy), segment_bytes=segment_bytes)
        journal.follow(tailer.feed)
        return journal

    journal = reopen()
    for n, (step, arg) in enumerate(steps):
        segments = journal.segments
        if step in ("append", "failed_append"):
            if step == "failed_append":
                disk.fail_writes(1)
            try:
                publish(journal, n, body=arg)
            except JournalWriteError:
                pass
        elif step == "commit":
            # ``arg % 5`` records in one scope; from 5 on a write tears.
            count = arg % 5
            if arg >= 5 and count:
                disk.fail_writes(1)
            with journal.commit(now=n * 1e-3):
                for k in range(count):
                    publish(journal, n, body=40 * k)
        elif step == "rotate":
            journal._tail_dirty = True  # the next append opens a fresh segment
        elif step == "checkpoint":
            entries = [
                {"domain": "queue", "dest": QUEUE, "mid": i, "msg": {"mid": i}, "delivers": 0}
                for i in range(arg)
            ]
            journal.checkpoint(entries, now=n * 1e-3)
        elif step == "tear_tail":
            disk.tear_tail()
        elif step == "corrupt":
            target = segments[arg % len(segments)]
            if disk.length(target):
                disk.corrupt(target)
        elif step == "truncate":
            target = segments[arg % len(segments)]
            disk.truncate(target, disk.length(target) * (arg % 3) // 3)
        elif step == "crash":
            disk.crash()
            journal = reopen()
        else:
            twin = twin_of(tailer)
            if arg is None:
                got, expected = tailer.poll_encoded(), [r.encoded for r in twin.poll()]
            else:
                got, expected = tailer.poll(arg), twin.poll(arg)
            assert got == expected, (n, step, arg)
            assert tailer.position == twin.position
            assert vars(tailer).keys() == vars(twin).keys()
            for counter in ("records_read", "segments_crossed", "repositions", "bytes_skipped"):
                assert getattr(tailer, counter) == getattr(twin, counter), (n, counter)
    twin = twin_of(tailer)
    assert tailer.poll() == twin.poll()
    assert tailer.position == twin.position
    assert tailer.lag_bytes == twin.lag_bytes


# ----------------------------------------------------------------------
# The feed in lockstep with a shadow tailer that only reads the disk
# ----------------------------------------------------------------------
import random  # noqa: E402

from repro.durability.journal import JournalRecord, RecordKind, encode_record  # noqa: E402


def _lockstep_drive(seed, steps=150):
    """Drive a journal with a fed tailer and an unfed shadow on its disk;
    after most steps both take, and must agree.  Returns ``(takes with
    records, of those the ones that made no disk read)``."""
    rng = random.Random(seed)
    disk = SimulatedDisk(RandomStreams(seed))
    policy = SyncPolicy.always() if seed % 2 else SyncPolicy.never()
    fed, shadow = JournalTailer(disk), JournalTailer(disk)
    reads = []
    read = disk.read
    disk.read = lambda *args: reads.append(args) or read(*args)

    def reopen():
        journal = Journal(disk, sync=policy, segment_bytes=1024)
        journal.follow(fed.feed)
        return journal

    journal = reopen()
    takes = hits = 0
    steps_by_weight = (
        ["append"] * 35 + ["commit"] * 10 + ["failed_append"] * 4 + ["rotate"] * 3
        + ["checkpoint"] * 3 + ["tear_tail"] * 3 + ["corrupt"] * 2 + ["truncate"] * 2
        + ["crash"] * 2 + ["other_writer"] * 3 + ["page"] * 3 + ["other_segment"]
    )
    for n in range(steps):
        step = rng.choice(steps_by_weight)
        segments = journal.segments
        if step == "append":
            publish(journal, n, body=rng.randrange(0, 300))
        elif step == "commit":
            count = rng.randrange(1, 6)
            if rng.random() < 0.3:
                disk.fail_writes(1)
            with journal.commit(now=n * 1e-3):
                for k in range(count):
                    publish(journal, n, body=rng.randrange(0, 120))
        elif step == "failed_append":
            disk.fail_writes(1)
            try:
                publish(journal, n, body=rng.randrange(0, 300))
            except JournalWriteError:
                pass
        elif step == "rotate":
            journal._tail_dirty = True
        elif step == "checkpoint":
            journal.checkpoint([], now=n * 1e-3)
        elif step == "tear_tail":
            disk.tear_tail()
        elif step == "corrupt":
            target = rng.choice(segments)
            if disk.length(target):
                disk.corrupt(target)
        elif step == "truncate":
            target = rng.choice(segments)
            disk.truncate(target, rng.randrange(0, disk.length(target) + 1))
        elif step == "crash":
            disk.crash()
            journal = reopen()
        elif step == "other_writer":
            # A whole record the journal did not write, hence did not feed.
            record = JournalRecord(RecordKind.ACK, {"mid": n, "reason": "acked"})
            disk.append(journal.current_segment, encode_record(record))
        elif step == "other_segment":
            # A newer segment the journal did not create, late in the run:
            # the journal goes on writing behind it.
            if n > 120:
                name = f"journal.{int(segments[-1][8:-4]) + 1000:08d}.seg"
                disk.create(name)
                disk.append(name, b"RJNL\x00\x02\x00\x00\x00\x00")
        else:
            page = rng.randrange(0, 4)
            assert fed.poll(page) == shadow.poll(page), (seed, n)
        if rng.random() < 0.6:
            before = len(reads)
            got = fed.poll_encoded()
            made_no_read = len(reads) == before
            assert got == [r.encoded for r in shadow.poll()], (seed, n, step)
            assert fed.position == shadow.position, (seed, n, step)
            for counter in ("records_read", "segments_crossed", "repositions", "bytes_skipped"):
                assert getattr(fed, counter) == getattr(shadow, counter), (seed, n, counter)
            if got:
                takes += 1
                hits += made_no_read
    return takes, hits


class TestTheFeedIsTheDisk:
    def test_a_fed_tailer_takes_what_an_unfed_shadow_reads(self):
        takes = hits = 0
        for seed in range(40):
            seed_takes, seed_hits = _lockstep_drive(seed)
            takes += seed_takes
            hits += seed_hits
        # Worth its name only if the feed carried most takes, and the
        # disk the rest: rotations, faults and foreign writes are common here.
        assert takes > 1000
        assert 0.25 * takes < hits < takes
