"""A deterministic simulated disk for crash-consistency studies.

The journal (:mod:`repro.durability.journal`) writes through this
abstraction instead of the real filesystem so that every failure mode the
torn-write literature studies (ALICE-style crash states) can be injected
*deterministically*:

- **torn tail writes** — on :meth:`SimulatedDisk.crash` every byte that
  was appended after the last :meth:`sync` may only partially survive:
  a seeded RNG picks how much of the unsynced tail reaches the platter,
  at arbitrary *byte* granularity (no sector-atomicity assumption, the
  adversarial model);
- **mid-log bit corruption** — :meth:`corrupt` flips bits at a chosen or
  seeded offset, modelling latent media errors discovered at replay;
- **scheduled write failures** — :meth:`fail_writes` makes the next *n*
  appends fail after persisting only a random prefix (a partial write
  followed by an I/O error, the classic half-written-record state).

All randomness is drawn from the per-kind streams of
:class:`~repro.rng.RandomStreams` (``disk-torn``,
``disk-corrupt``, ``disk-fail``), the same variance-reduction discipline
as :meth:`repro.faults.FaultSchedule.random`: enabling one fault kind
never perturbs the byte-level outcome of another, and a seed reproduces
the exact same crash image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rng import RandomStreams

__all__ = ["DiskError", "DiskWriteError", "DiskCrashReport", "SimulatedDisk"]


class DiskError(Exception):
    """Base class for simulated-disk failures."""


class DiskWriteError(DiskError):
    """An append failed (scheduled write fault); a prefix may have landed."""


@dataclass(frozen=True)
class DiskCrashReport:
    """What one simulated power loss did to the unsynced state."""

    files: int
    unsynced_bytes: int
    surviving_bytes: int
    torn_files: int

    @property
    def bytes_lost(self) -> int:
        return self.unsynced_bytes - self.surviving_bytes


class SimulatedDisk:
    """An in-memory file store with fsync semantics and fault injection.

    Files support only the operations a write-ahead log needs: create,
    append, sync, read, truncate, delete.  ``sync`` advances the durable
    watermark; bytes beyond it are at the mercy of :meth:`crash`.

    Two monotone counters let a reader that polls the disk skip the poll
    when nothing happened — the in-memory stand-in for ``st_mtime`` or an
    inotify watch: :attr:`changes` moves on every call that can change
    what a reader sees (a created, deleted, truncated, torn or corrupted
    file, an append — the partial write of a failed one included),
    :attr:`name_changes` only when the set of file names does.

    Example
    -------
    >>> disk = SimulatedDisk(RandomStreams(seed=7))
    >>> disk.create("wal.seg")
    >>> _ = disk.append("wal.seg", b"committed")
    >>> disk.sync("wal.seg")
    >>> _ = disk.append("wal.seg", b"in flight")
    >>> report = disk.crash()
    >>> disk.read("wal.seg")[:9]
    b'committed'
    """

    def __init__(self, streams: Optional[RandomStreams] = None):
        self.streams = streams if streams is not None else RandomStreams(seed=0)
        self._files: Dict[str, bytearray] = {}
        self._synced: Dict[str, int] = {}
        self._changes = 0
        self._name_changes = 0
        # -- counters ----------------------------------------------------
        self.writes = 0
        self.syncs = 0
        self.bytes_written = 0
        self.crashes = 0
        self.torn_writes = 0
        self.failed_writes = 0
        self.corruptions = 0
        # -- armed faults ------------------------------------------------
        self._fail_next = 0

    # ------------------------------------------------------------------
    # Change counters
    # ------------------------------------------------------------------
    @property
    def changes(self) -> int:
        """Bumped by every call that can change what a reader sees; by
        exactly one for an append."""
        return self._changes

    @property
    def name_changes(self) -> int:
        """Bumped only when a file is created or deleted."""
        return self._name_changes

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------
    def create(self, name: str) -> None:
        if name in self._files:
            raise DiskError(f"file {name!r} already exists")
        self._files[name] = bytearray()
        self._synced[name] = 0
        self._changes += 1
        self._name_changes += 1

    def exists(self, name: str) -> bool:
        return name in self._files

    def _file(self, name: str) -> bytearray:
        try:
            return self._files[name]
        except KeyError:
            raise DiskError(f"no such file {name!r}") from None

    def append(self, name: str, data: bytes) -> int:
        """Append ``data``; returns the offset it was written at.

        A scheduled write fault (see :meth:`fail_writes`) persists only a
        seeded random prefix of ``data`` and raises
        :class:`DiskWriteError` — the half-written-record state a crash
        recovery must tolerate.
        """
        buffer = self._file(name)
        offset = len(buffer)
        self._changes += 1
        if self._fail_next > 0:
            self._fail_next -= 1
            self.failed_writes += 1
            keep = int(self.streams.stream("disk-fail").integers(0, len(data) + 1))
            buffer.extend(data[:keep])
            self.bytes_written += keep
            raise DiskWriteError(
                f"write to {name!r} failed after {keep}/{len(data)} bytes"
            )
        buffer.extend(data)
        self.writes += 1
        self.bytes_written += len(data)
        return offset

    def sync(self, name: str) -> None:
        """fsync: everything currently in ``name`` becomes crash-durable."""
        self._synced[name] = len(self._file(name))
        self.syncs += 1

    def read(self, name: str, start: int = 0) -> bytes:
        """The file's bytes from ``start`` on; only those are copied."""
        if start < 0:
            raise DiskError(f"cannot read {name!r} from offset {start}")
        return bytes(memoryview(self._file(name))[start:])

    def length(self, name: str) -> int:
        return len(self._file(name))

    def synced_length(self, name: str) -> int:
        self._file(name)
        return self._synced[name]

    def truncate(self, name: str, length: int) -> None:
        """Cut a file down to ``length`` bytes (recovery repairs torn tails)."""
        buffer = self._file(name)
        if length < 0 or length > len(buffer):
            raise DiskError(
                f"cannot truncate {name!r} to {length} (size {len(buffer)})"
            )
        del buffer[length:]
        self._synced[name] = min(self._synced[name], length)
        self._changes += 1

    def delete(self, name: str) -> None:
        self._file(name)
        del self._files[name]
        del self._synced[name]
        self._changes += 1
        self._name_changes += 1

    def list(self) -> List[str]:
        """File names in lexicographic order (segment replay order)."""
        return sorted(self._files)

    # ------------------------------------------------------------------
    # Snapshots (the chaos harness replays truncated images)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, bytes]:
        """An immutable copy of every file's current content."""
        return {name: bytes(data) for name, data in self._files.items()}

    @classmethod
    def from_snapshot(
        cls, image: Dict[str, bytes], streams: Optional[RandomStreams] = None
    ) -> "SimulatedDisk":
        """A disk whose files hold ``image`` verbatim (all bytes synced)."""
        disk = cls(streams)
        for name, data in image.items():
            disk._files[name] = bytearray(data)
            disk._synced[name] = len(data)
        return disk

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_writes(self, count: int = 1) -> None:
        """Make the next ``count`` appends fail after a partial write."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._fail_next += count

    def corrupt(
        self, name: str, offset: Optional[int] = None, bits: int = 1
    ) -> int:
        """Flip ``bits`` bits in ``name``; returns the affected offset.

        With ``offset=None`` the position is drawn from the
        ``disk-corrupt`` stream — a latent media error somewhere in the
        log.  The flip never touches a byte twice, so corruption is
        always detectable by the record CRC.
        """
        buffer = self._file(name)
        if not buffer:
            raise DiskError(f"cannot corrupt empty file {name!r}")
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        rng = self.streams.stream("disk-corrupt")
        if offset is None:
            offset = int(rng.integers(0, len(buffer)))
        if not 0 <= offset < len(buffer):
            raise DiskError(f"corrupt offset {offset} outside {name!r}")
        for i in range(bits):
            position = offset + i
            if position >= len(buffer):
                break
            buffer[position] ^= 1 << int(rng.integers(0, 8))
        self.corruptions += 1
        self._changes += 1
        return offset

    def tear_tail(self, name: Optional[str] = None) -> int:
        """Tear the unsynced tail of ``name`` (default: last file) *now*.

        Models a partial write hitting the platter mid-operation without
        a full power loss.  Returns the number of bytes discarded.
        """
        if name is None:
            names = self.list()
            if not names:
                raise DiskError("no files to tear")
            name = names[-1]
        return self._tear(name)

    def _tear(self, name: str) -> int:
        buffer = self._file(name)
        synced = self._synced[name]
        unsynced = len(buffer) - synced
        if unsynced <= 0:
            return 0
        keep = int(self.streams.stream("disk-torn").integers(0, unsynced + 1))
        discarded = unsynced - keep
        if discarded:
            del buffer[synced + keep :]
            self.torn_writes += 1
            self._changes += 1
        return discarded

    def crash(self) -> DiskCrashReport:
        """Simulated power loss: every unsynced tail is torn.

        For each file, a seeded random prefix of the unsynced region
        survives (possibly none, possibly all) — the contract ``fsync``
        actually gives you.  Synced bytes are never touched.
        """
        self.crashes += 1
        unsynced_total = surviving = torn = 0
        for name in self.list():
            buffer = self._files[name]
            synced = self._synced[name]
            unsynced = len(buffer) - synced
            unsynced_total += unsynced
            discarded = self._tear(name)
            surviving += unsynced - discarded
            if discarded:
                torn += 1
            self._synced[name] = len(buffer)
        return DiskCrashReport(
            files=len(self._files),
            unsynced_bytes=unsynced_total,
            surviving_bytes=surviving,
            torn_files=torn,
        )

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(len(data) for data in self._files.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedDisk({len(self._files)} files, {self.total_bytes} bytes)"
