"""The remembered dirty set flushes exactly what walking the disk would.

``Journal.sync`` used to list the disk and test every segment; it now
drains a set of segments the journal remembers having written.  The old
implementation lives on here as the reference: two journals on two
identically seeded disks are driven through the same random interleaving
of appends, forced rotations, checkpoints, failed writes, torn tails,
crashes, closes and reopens, and after every step the two disks must hold
the same bytes *and* the same per-file fsync watermarks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.message import Message
from repro.durability import (
    DiskError,
    Journal,
    JournalWriteError,
    SimulatedDisk,
    SyncPolicy,
)
from repro.rng import RandomStreams

QUEUE = "orders"


class ScanAllJournal(Journal):
    """The parent implementation: list the disk, test every segment."""

    def _sync_dirty(self, known_dirty=None):
        for segment in self.segments:
            if self.disk.length(segment) > self.disk.synced_length(segment):
                self.disk.sync(segment)
        self.syncs += 1
        self._unsynced_records = 0


POLICIES = st.one_of(
    st.just(SyncPolicy.always()),
    st.just(SyncPolicy.never()),
    st.builds(
        SyncPolicy.group_commit,
        batch=st.integers(1, 5),
        interval=st.one_of(st.none(), st.sampled_from([0.002, 0.01])),
    ),
)

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 300)),
        st.tuples(st.just("failed_append"), st.integers(0, 300)),
        st.tuples(st.just("checkpoint"), st.integers(0, 3)),
        st.tuples(st.just("failed_checkpoint"), st.integers(0, 3)),
        st.tuples(st.just("tear"), st.just(0)),
        st.tuples(st.just("sync"), st.just(0)),
        st.tuples(st.just("close_reopen"), POLICIES),
        st.tuples(st.just("abandon_reopen"), POLICIES),
        st.tuples(st.just("crash_reopen"), POLICIES),
    ),
    min_size=1,
    max_size=40,
)


def watermarks(disk):
    return {name: disk.synced_length(name) for name in disk.list()}


def publish(journal, n, body, now):
    message = Message(topic=QUEUE, properties={"n": n}, body=b"x" * body, message_id=n + 1)
    return journal.log_publish("queue", QUEUE, message, now=now)


class Side:
    """One journal implementation on its own (identically seeded) disk."""

    def __init__(self, cls, seed, policy):
        self.cls = cls
        self.disk = SimulatedDisk(RandomStreams(seed))
        self.open(policy)

    def open(self, policy):
        # 256-byte segments: nearly every append rotates.  An armed write
        # fault can land on the constructor's own header write; a journal
        # that failed to open is opened again (the one-writer rule: nobody
        # keeps using the predecessor once a successor touched the disk).
        for _attempt in range(64):  # at most one retry per armed fault
            try:
                self.journal = self.cls(self.disk, sync=policy, segment_bytes=256)
                return
            except DiskError:
                continue
        raise AssertionError("journal never opened")

    def apply(self, step, arg, n, now):
        """Run one step; returns whether the journal refused the write.

        With 256-byte segments an armed fault lands on a rotation's
        segment header about as often as on a record.  Either way the
        journal fails fast with ``JournalWriteError`` and stays usable: a
        raw disk error escaping here, or a later step tripping over the
        torn header, fails the test.
        """
        failures = self.journal.write_failures
        try:
            self._apply(step, arg, n, now)
        except JournalWriteError:
            assert self.journal.write_failures == failures + 1
            return True
        return False

    def _apply(self, step, arg, n, now):
        journal = self.journal
        if step == "append":
            publish(journal, n, arg, now)
        elif step == "failed_append":
            self.disk.fail_writes(1)
            publish(journal, n, arg, now)
        elif step in ("checkpoint", "failed_checkpoint"):
            entries = [
                {"domain": "queue", "dest": QUEUE, "mid": i, "msg": {"mid": i}, "delivers": 0}
                for i in range(arg)
            ]
            if step == "failed_checkpoint":
                self.disk.fail_writes(1)  # lands on the fresh segment's header
            journal.checkpoint(entries, now=now)
        elif step == "tear":
            self.disk.tear_tail()
        elif step == "sync":
            journal.sync()
            assert journal.unsynced_bytes == 0
        elif step == "close_reopen":
            journal.close()
            assert journal.unsynced_bytes == 0
            self.open(arg)
        elif step == "abandon_reopen":
            self.open(arg)  # the predecessor's unsynced bytes are inherited
        elif step == "crash_reopen":
            self.disk.crash()
            self.open(arg)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), policy=POLICIES, steps=STEPS)
def test_remembered_dirty_set_matches_walking_every_segment(seed, policy, steps):
    new = Side(Journal, seed, policy)
    reference = Side(ScanAllJournal, seed, policy)
    for n, (step, arg) in enumerate(steps):
        now = n * 1e-3
        assert new.apply(step, arg, n, now) == reference.apply(step, arg, n, now)
        assert new.disk.snapshot() == reference.disk.snapshot(), (n, step)
        assert watermarks(new.disk) == watermarks(reference.disk), (n, step)
        assert new.journal.syncs == reference.journal.syncs, (n, step)
        assert new.disk.syncs == reference.disk.syncs, (n, step)
    new.journal.close()
    reference.journal.close()
    assert new.journal.unsynced_bytes == 0
    assert watermarks(new.disk) == watermarks(reference.disk)
    assert new.disk.syncs == reference.disk.syncs


def test_inherited_dirt_is_flushed_by_the_successor():
    # Journal A under ``never`` leaves unsynced bytes in several segments
    # and is abandoned; B, opened on the same disk, owns them from then on.
    disk = SimulatedDisk(RandomStreams(3))
    a = Journal(disk, sync=SyncPolicy.never(), segment_bytes=256)
    for n in range(12):
        publish(a, n, 80, now=0.0)
    assert len(a.segments) > 3
    assert a.unsynced_bytes > 0
    b = Journal(disk, sync=SyncPolicy.never(), segment_bytes=256)
    publish(b, 99, 80, now=0.0)
    b.close()
    assert b.unsynced_bytes == 0
    assert all(disk.synced_length(name) == disk.length(name) for name in disk.list())


def test_checkpoint_under_never_forgets_the_segments_it_deletes():
    disk = SimulatedDisk(RandomStreams(4))
    journal = Journal(disk, sync=SyncPolicy.never(), segment_bytes=256)
    for n in range(12):
        publish(journal, n, 80, now=0.0)
    _lsn, deleted = journal.checkpoint([], now=0.0)
    assert deleted > 3
    journal.close()  # must not try to measure a deleted segment
    assert journal.unsynced_bytes == 0
