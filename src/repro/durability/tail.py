"""Journal tailing: read a live journal incrementally, for shipping.

A :class:`JournalTailer` follows a :class:`~repro.durability.journal.Journal`
written by someone else on the same :class:`~repro.durability.disk.SimulatedDisk`
and yields each record exactly once, in append order, as it becomes
readable.  It is the feed side of primary→standby replication
(:mod:`repro.replication`): the shipper polls the tailer, batches what it
returns and puts the batches on the wire.

The delicate part is staying correct while the journal mutates underneath:

- **rotation** — when the current segment is exhausted and a newer one
  exists, the reader crosses into the next segment *past its 10-byte
  header*; a partially-written header on the newest segment means "wait",
  never "skip";
- **partial tail** — an incomplete record at the end of the newest
  segment is a record still being written (or a dirty tail after a failed
  append); the tailer waits for it to complete or for the writer to
  rotate away from it;
- **checkpoint compaction** — :meth:`Journal.checkpoint` may *delete* the
  segment the tailer is positioned in.  The tailer then repositions at
  the oldest surviving segment, whose first record is the CHECKPOINT
  snapshot.  Because a CHECKPOINT resets any downstream fold to its
  snapshot (see :func:`repro.durability.recovery.fold_records`), the
  reposition loses nothing: every record the tailer skipped is subsumed
  by the snapshot it now reads instead;
- **sealed garbage** — unparsable bytes in a *non-newest* segment (a
  dirty tail the writer rotated away from) are skipped with a probe, the
  same classification the recovery scan uses.

The tailer never mutates the disk and never double-reads: its position
``(segment, offset)`` only moves forward within a segment and only moves
to strictly newer segments across them.

A shipper need not read back what the journal just wrote.  A tailer
registered as the journal's follower (``journal.follower =
tailer.feed``) is handed each stretch the journal writes, and
:meth:`JournalTailer.poll_encoded` returns those bytes without a disk
call when a read would return exactly them: the disk changed by nothing
but the fed writes since the first of them (its change counter moved by
one a feed, the one an append makes, and still stands where the last
feed left it), the stretch
starts at the tailer's own position, and that position lies past the
header of the newest segment of a listing still current.  Anything
else — a rotation, a checkpoint's deletions, a failed or torn write,
corruption, a truncation, a crash, a write the journal did not feed —
breaks one of the three, and the feed is dropped for an ordinary
:meth:`poll`.  The
journal refuses on write any record its readers would refuse
(:data:`~repro.durability.journal.MAX_RECORD_BYTES`), so every fed
record is one a read would have parsed.

A poll costs what changed, not what exists.  The disk keeps two change
counters (:attr:`SimulatedDisk.changes`, :attr:`SimulatedDisk.name_changes`
— what ``st_mtime`` or an inotify watch is to a real log shipper): a poll
that finds the disk exactly as the last poll *that ran the log dry* left
it returns at once, without a listing, a read or a parse, and any other
poll lists the directory again only if a file was created or deleted
since the listing it remembers.  A poll cut short by ``max_records`` did
not run dry, so pagination never mistakes "page full" for "nothing new".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .disk import SimulatedDisk
from .journal import (
    SEGMENT_HEADER_SIZE,
    SEGMENT_VERSION,
    JournalRecord,
    segment_version,
)
from .recovery import _probe, _try_parse

__all__ = ["JournalTailer", "TailedRecord"]


@dataclass(slots=True)
class TailedRecord(JournalRecord):
    """A record read off a log, with the wire bytes it was parsed from.

    ``encoded`` is the CRC-verified on-disk record
    (``u32 length | u32 crc | body``), so a shipper forwards it as is
    instead of re-serialising the parse.
    """

    encoded: bytes


class JournalTailer:
    """Incremental, rotation- and compaction-safe journal reader.

    Example
    -------
    >>> from repro.durability import Journal, SimulatedDisk
    >>> from repro.broker.message import Message
    >>> disk = SimulatedDisk()
    >>> journal = Journal(disk)
    >>> tailer = JournalTailer(disk)
    >>> _ = journal.log_publish("queue", "orders", Message(topic="orders"))
    >>> [record.kind.name for record in tailer.poll()]
    ['PUBLISH']
    >>> tailer.poll()
    []
    """

    def __init__(self, disk: SimulatedDisk, name: str = "journal"):
        self.disk = disk
        self.name = name
        #: Current read position; ``None`` segment = not yet positioned.
        self._segment: Optional[str] = None
        self._offset = 0
        #: The last directory listing and the ``disk.name_changes`` it was
        #: taken at; ``disk.changes`` as of the last poll that ran dry.
        self._listing: List[str] = []
        self._listed_at: Optional[int] = None
        self._dry_at: Optional[int] = None
        #: Records fed since the last take, which landed back to back from
        #: ``(_fed_segment, _fed_offset)``; ``disk.changes`` after the last.
        self._fed: List[bytes] = []
        self._fed_segment = ""
        self._fed_offset = 0
        self._fed_at = -1
        # -- counters ----------------------------------------------------
        self.records_read = 0
        self.segments_crossed = 0
        #: Times compaction deleted the held segment and the tailer had to
        #: reposition at the oldest survivor (the checkpoint segment).
        self.repositions = 0
        #: Unparsable bytes skipped in sealed segments (dirty tails the
        #: writer rotated away from, mid-log corruption).
        self.bytes_skipped = 0

    # ------------------------------------------------------------------
    def _segments(self) -> List[str]:
        """The journal's segment files, oldest first: the remembered
        listing, taken again only after a file was created or deleted."""
        names_at = self.disk.name_changes
        if names_at != self._listed_at:
            prefix = f"{self.name}."
            self._listing = [
                f for f in self.disk.list() if f.startswith(prefix) and f.endswith(".seg")
            ]
            self._listed_at = names_at
        return self._listing

    def _holds(self, segments: List[str]) -> bool:
        """Whether the held segment is still among ``segments`` (sorted)."""
        if self._segment is None:
            return False
        index = bisect_left(segments, self._segment)
        return index < len(segments) and segments[index] == self._segment

    @property
    def position(self) -> Tuple[Optional[str], int]:
        """Current ``(segment, offset)`` read position."""
        return self._segment, self._offset

    @property
    def lag_bytes(self) -> int:
        """Bytes on disk beyond the current position (yet to be read)."""
        segments = self._segments()
        if not self._holds(segments):
            return sum(self.disk.length(s) for s in segments)
        assert self._segment is not None
        lag = self.disk.length(self._segment) - self._offset
        for segment in segments[bisect_right(segments, self._segment) :]:
            lag += self.disk.length(segment)
        return max(lag, 0)

    # ------------------------------------------------------------------
    def poll(self, max_records: Optional[int] = None) -> List[TailedRecord]:
        """Read every newly complete record (up to ``max_records``).

        Returns records in append order; a later ``poll`` resumes exactly
        where this one stopped.  An incomplete record at the tail of the
        newest segment is left for a later poll — the tailer never
        returns a record that could still change.

        Nothing writes the disk during a poll, so the directory is listed
        at most once and each segment is read once, from the position on;
        a poll of a disk nobody touched since the log last ran dry makes
        no disk call at all.
        """
        if max_records is not None and max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        out: List[TailedRecord] = []
        changes = self.disk.changes
        if changes != self._dry_at:
            self._dry_at = changes if self._read_into(out, max_records) else None
        return out

    def feed(self, segment: str, offset: int, records: Sequence[bytes], changes: int) -> None:
        """Be handed ``records``, just written back to back from ``offset``
        of ``segment``, with ``changes`` the disk's change counter right
        after the write: the journal's
        :attr:`~repro.durability.journal.Journal.follower`.

        A write that was the disk's only change since the last feed (an
        append moves the counter by one, and any other change moves it
        too) landed where that feed ended, and extends its stretch; any
        other starts a new stretch.
        """
        if self._fed and changes == self._fed_at + 1:
            self._fed.extend(records)
        else:
            self._fed = list(records)
            self._fed_segment, self._fed_offset = segment, offset
        self._fed_at = changes

    def poll_encoded(self) -> List[bytes]:
        """The wire bytes of every newly complete record:
        ``[record.encoded for record in self.poll()]``.

        When the fed stretch is provably what that read would return (see
        the module docstring), it is returned as is, and the position,
        ``records_read`` and the dry mark move as the read would have moved
        them; otherwise the feed is dropped and :meth:`poll` reads.
        """
        fed, self._fed = self._fed, []
        disk = self.disk
        if (
            fed
            and self._fed_at == disk.changes
            and self._fed_offset == self._offset >= SEGMENT_HEADER_SIZE
            and self._fed_segment == self._segment
            and self._listed_at == disk.name_changes
            and self._listing[-1] == self._segment
        ):
            self._offset += sum(map(len, fed))
            self.records_read += len(fed)
            self._dry_at = self._fed_at
            return fed
        return [record.encoded for record in self.poll()]

    def _read_into(self, out: List[TailedRecord], max_records: Optional[int]) -> bool:
        """Append what is readable to ``out``; whether the log ran dry
        (``False``: ``max_records`` stopped the read first)."""
        segments = self._segments()
        if not segments:
            return True
        if not self._holds(segments):
            if self._segment is not None:
                # Compaction deleted the held segment.  Everything we had
                # not read is subsumed by the CHECKPOINT at the head of
                # the oldest survivor — reposition there.
                self.repositions += 1
            self._segment, self._offset = segments[0], 0
        held: Optional[str] = None
        data, base = b"", 0  # ``data`` is segment ``held`` from ``base`` on
        while max_records is None or len(out) < max_records:
            segment = self._segment
            assert segment is not None
            if segment != held:
                held, base = segment, self._offset
                data = self.disk.read(segment, base)
            newest = segment == segments[-1]
            if self._offset < SEGMENT_HEADER_SIZE and not self._consume_header(
                data, newest, segments
            ):
                if newest:
                    return True  # header still being written: wait
                continue  # skipped a sealed headerless segment
            start = self._offset - base
            parsed = _try_parse(data, start)
            if parsed is not None:
                record, end = parsed
                self._offset = base + end
                self.records_read += 1
                out.append(TailedRecord(record.kind, record.payload, data[start:end]))
                continue
            if start >= len(data) and not newest:
                self._cross_to_next(segments)
                continue
            if newest:
                return True  # exhausted, or a record still being written
            # Sealed segment with unparsable bytes at the position: probe
            # past the garbage (mid-log corruption) or give the remainder
            # up (dirty tail before a rotation) and cross over.
            resume = _probe(data, start)
            if resume is not None:
                self.bytes_skipped += resume - start
                self._offset = base + resume
                continue
            self.bytes_skipped += len(data) - start
            self._cross_to_next(segments)
        return False

    # ------------------------------------------------------------------
    def _consume_header(self, data: bytes, newest: bool, segments: List[str]) -> bool:
        """Position past the segment header; False = cannot enter yet.

        A position before the header is always offset 0, so ``data`` is
        then the whole segment.
        """
        if segment_version(data) == SEGMENT_VERSION:
            self._offset = SEGMENT_HEADER_SIZE
            return True
        if newest:
            return False  # torn/absent header on the tail: wait
        # A sealed segment without a valid header of this format version
        # holds nothing readable (the recovery scan quarantines it
        # wholesale); skip it.
        self.bytes_skipped += len(data)
        self._cross_to_next(segments)
        return False

    def _cross_to_next(self, segments: List[str]) -> None:
        assert self._segment is not None
        index = bisect_right(segments, self._segment)
        if index < len(segments):
            self._segment, self._offset = segments[index], 0
            self.segments_crossed += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JournalTailer({self.name!r}, at {self._segment}:{self._offset}, "
            f"{self.records_read} read)"
        )
