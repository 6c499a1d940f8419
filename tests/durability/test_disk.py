"""The simulated disk: sync semantics and deterministic fault injection."""

import pytest

from repro.durability import DiskError, DiskWriteError, SimulatedDisk
from repro.rng import RandomStreams


def disk(seed=0):
    return SimulatedDisk(RandomStreams(seed))


class TestBasics:
    def test_append_and_read(self):
        d = disk()
        d.create("f")
        assert d.append("f", b"abc") == 0
        assert d.append("f", b"def") == 3
        assert d.read("f") == b"abcdef"
        assert d.length("f") == 6

    def test_sync_advances_synced_length(self):
        d = disk()
        d.create("f")
        d.append("f", b"abcd")
        assert d.synced_length("f") == 0
        d.sync("f")
        assert d.synced_length("f") == 4

    def test_snapshot_roundtrip(self):
        d = disk()
        d.create("f")
        d.append("f", b"hello")
        clone = SimulatedDisk.from_snapshot(d.snapshot())
        assert clone.read("f") == b"hello"
        # snapshot content counts as synced (it survived)
        assert clone.synced_length("f") == 5

    def test_unknown_file_errors(self):
        with pytest.raises(DiskError):
            disk().read("missing")


class TestFaults:
    def test_fail_writes_persists_only_a_prefix(self):
        d = disk()
        d.create("f")
        d.fail_writes(1)
        with pytest.raises(DiskWriteError):
            d.append("f", b"0123456789")
        assert d.length("f") < 10
        # the next write succeeds again
        d.append("f", b"ok")

    def test_corrupt_flips_bits_in_place(self):
        d = disk()
        d.create("f")
        d.append("f", b"\x00" * 8)
        d.corrupt("f", offset=3, bits=1)
        data = d.read("f")
        assert len(data) == 8
        assert data != b"\x00" * 8

    def test_tear_tail_discards_only_unsynced_bytes(self):
        d = disk()
        d.create("f")
        d.append("f", b"synced")
        d.sync("f")
        d.append("f", b"unsynced")
        discarded = d.tear_tail("f")
        assert 0 <= discarded <= len(b"unsynced")
        assert d.read("f")[:6] == b"synced"

    def test_crash_tears_every_unsynced_tail(self):
        d = disk()
        for name in ("a", "b"):
            d.create(name)
            d.append(name, b"persisted")
            d.sync(name)
            d.append(name, b"volatile")
        report = d.crash()
        assert report.files == 2
        for name in ("a", "b"):
            assert d.read(name)[:9] == b"persisted"
            assert d.synced_length(name) == d.length(name)

    def test_same_seed_same_tear(self):
        def run():
            d = disk(seed=7)
            d.create("f")
            d.append("f", b"x" * 100)
            d.tear_tail("f")
            return d.read("f")

        assert run() == run()


class TestChangeCounters:
    """``changes`` / ``name_changes``: what a polling reader skips work on."""

    #: Every public callable of the disk, with a call that (where the
    #: method can) alters what a reader sees.  A new public method fails
    #: ``test_every_public_method_is_walked`` until it is listed here, and
    #: then has to keep the counters honest like the rest.
    CALLS = {
        "create": lambda d: d.create("new"),
        "exists": lambda d: d.exists("f"),
        "append": lambda d: d.append("f", b"more"),
        "sync": lambda d: d.sync("f"),
        "read": lambda d: d.read("f"),
        "length": lambda d: d.length("f"),
        "synced_length": lambda d: d.synced_length("f"),
        "truncate": lambda d: d.truncate("f", 2),
        "delete": lambda d: d.delete("f"),
        "list": lambda d: d.list(),
        "snapshot": lambda d: d.snapshot(),
        "from_snapshot": lambda d: d.from_snapshot({"g": b"x"}),
        "fail_writes": lambda d: d.fail_writes(1),
        "corrupt": lambda d: d.corrupt("f", offset=1),
        "tear_tail": lambda d: d.tear_tail("f"),
        "crash": lambda d: d.crash(),
    }

    @staticmethod
    def prepared(seed):
        d = disk(seed)
        d.create("f")
        d.append("f", b"synced")
        d.sync("f")
        d.append("f", b"unsynced tail, long enough that some seed tears it")
        return d

    def test_every_public_method_is_walked(self):
        public = {
            name
            for name in dir(SimulatedDisk)
            if not name.startswith("_") and callable(getattr(SimulatedDisk, name))
        }
        assert public == set(self.CALLS)

    @pytest.mark.parametrize("method", sorted(CALLS))
    def test_no_visible_change_without_a_counter_bump(self, method):
        moved = False
        for seed in range(8):
            d = self.prepared(seed)
            image, changes, name_changes = d.snapshot(), d.changes, d.name_changes
            self.CALLS[method](d)
            assert d.changes >= changes and d.name_changes >= name_changes
            if d.snapshot() != image:
                moved = True
                assert d.changes > changes, method
            if set(d.snapshot()) != set(image):
                assert d.name_changes > name_changes, method
            else:
                assert d.name_changes == name_changes, method
        expected = {"create", "append", "truncate", "delete", "corrupt", "tear_tail", "crash"}
        assert moved == (method in expected)

    def test_a_failed_append_counts_for_its_partial_write(self):
        for seed in range(8):
            d = self.prepared(seed)
            before = d.changes
            d.fail_writes(1)
            with pytest.raises(DiskWriteError):
                d.append("f", b"0123456789")
            assert d.changes == before + 1

    def test_the_counters_are_read_only(self):
        d = disk()
        for name in ("changes", "name_changes"):
            with pytest.raises(AttributeError):
                setattr(d, name, 7)

    def test_reads_and_syncs_leave_the_counters_alone(self):
        d = self.prepared(0)
        before = d.changes, d.name_changes
        d.sync("f")
        for look in (d.list, d.snapshot):
            look()
        for look in (d.read, d.length, d.synced_length, d.exists):
            look("f")
        assert d.total_bytes > 0
        assert (d.changes, d.name_changes) == before
