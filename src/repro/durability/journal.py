"""A segmented, checksummed write-ahead journal.

The paper measures FioranoMQ's *persistent* delivery mode; this module is
the storage layer that mode implies.  Every state transition of a
persistent message — publish, deliver, acknowledge, expire — is appended
as a length-prefixed, CRC-checksummed record *before* the in-memory state
changes, so a crash can always be rolled forward from disk
(:mod:`repro.durability.recovery`).

Record wire format, version 2 (all integers big-endian)::

    record  := u32 length | u32 crc32(body) | body
    body    := u8 kind | u32 meta_len | meta | blobs
    meta    := the payload as canonical JSON (sorted keys, no
               whitespace, utf-8) in which every message's "body"
               field holds that body's *byte length*
    blobs   := those bodies, raw, concatenated in document order

A PUBLISH record carries one body (``payload["msg"]["body"]``), a
CHECKPOINT one per entry in entry order, DELIVER/ACK/EXPIRE none (so
``5 + meta_len == length``); a message dict without a ``"body"`` key
carries no blob.  A reader accepts a record only if the declared
lengths are non-negative ints that tile ``blobs`` *exactly*
(:func:`repro.durability.recovery._try_parse`).  In memory a body is
``bytes`` throughout; the length only exists on the wire, so a durable
message costs its own size on disk plus a constant.

``meta`` has two authors and one layout.  The broker-facing calls —
:meth:`Journal.log_publish`, ``log_deliver``, ``log_ack``, ``log_expire``,
two to three of them per persistent message — *assemble* it: fixed text
with the keys already in sorted order around :func:`_atom` of each value,
the JSON encoder run only for what is free-form (a property section, an
``owed`` list, an atom of a type ``_atom`` does not write itself), one
value at a time; the destination and domain of a route the journal has
written before come quoted from its memo (:meth:`Journal._route`).
:func:`encode_record` *serialises* it from a payload
dict with that same encoder: CHECKPOINTs, and any parsed record encoded
again.  Both end in :func:`_seal`, the one place that frames a record.
``encode_record`` is the specification: ``tests/durability/
test_encode_once.py`` holds every ``log_*`` call to exactly the bytes
``encode_record`` gives for the payload it stands for, over hostile
strings, numbers and types, and ``test_record_format.py::TestGoldenWal``
pins a fixed script's bytes to a literal digest.

Segment files (``<name>.<index>.seg`` on a
:class:`~repro.durability.disk.SimulatedDisk`) start with a 10-byte
header ``b"RJNL" ++ u16 version ++ u32 segment index`` and are rotated
once they exceed ``segment_bytes``.  Readers check the version: a segment
declaring any other than :data:`SEGMENT_VERSION` is input from outside
this program and is quarantined whole, never repaired
(:func:`segment_version`).  :meth:`Journal.checkpoint` writes a
snapshot of the live state into a fresh segment and deletes the older
ones (compaction); the ordering — write, **sync**, then delete — keeps
every crash point recoverable.

A *commit* is one :meth:`Journal.append_run`: the records of a stretch
that shares a segment are one disk write and one sync-policy decision.
A write has four authors.  Every ``log_*`` call, like
:meth:`Journal.append_encoded`, commits a run of one; the standby
commits the records of a shipped frame as one run; a checkpoint is its
own run on a fresh segment; and a :meth:`Journal.commit` scope holds
whatever is logged inside it — the ``log_*`` calls seal their records
exactly as ever — and commits it, in logging order, as one run when it
closes: a stage of ``send_batch`` / ``publish_batch`` is such a scope.
Outside a scope nothing is buffered: every policy is write-through.
Each stretch that lands whole is handed to the journal's
:attr:`~Journal.follower`, if it has one: a replication shipper takes
the bytes from there instead of reading them back off the disk.

Sync policies model the fsync cost the paper's ``E[B]`` (Eq. 1) never
had to pay:

- ``SyncPolicy.always()`` — fsync every commit before the call that
  made it returns (no committed record can be lost, maximum cost: one
  fsync a record for lone appends, one a stage for a batch);
- ``SyncPolicy.group_commit(batch, interval)`` — fsync once ``batch``
  records or ``interval`` virtual seconds have gone unsynced, amortising
  ``t_sync/b`` per message with ``b`` the larger of ``batch`` and the
  commit (see :func:`repro.durability.capacity.durability_capacity_sweep`);
- ``SyncPolicy.never()`` — rely on the OS cache; a crash may tear any
  unsynced suffix.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..broker.message import DeliveryMode, Message
from .disk import DiskWriteError, SimulatedDisk

__all__ = [
    "durable_key",
    "JournalError",
    "JournalWriteError",
    "RecordKind",
    "JournalRecord",
    "RecordLocation",
    "CommitScope",
    "SyncPolicy",
    "Journal",
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "SEGMENT_HEADER_SIZE",
    "RECORD_HEADER_SIZE",
    "BODY_PREFIX_SIZE",
    "segment_version",
    "encode_message",
    "decode_message",
    "encode_record",
]

#: Segment header: magic, format version, segment index.
SEGMENT_MAGIC = b"RJNL"
SEGMENT_VERSION = 2
_SEGMENT_HEADER = struct.Struct(">4sHI")
SEGMENT_HEADER_SIZE = _SEGMENT_HEADER.size

#: Record header: body length, CRC32 of the body.
_RECORD_HEADER = struct.Struct(">II")
RECORD_HEADER_SIZE = _RECORD_HEADER.size
#: What a record body starts with: kind, length of the JSON ``meta``.
_BODY_PREFIX = struct.Struct(">BI")
BODY_PREFIX_SIZE = _BODY_PREFIX.size
#: Both in one unpack, as a reader takes them.
_RECORD_FRONT = struct.Struct(">IIBI")

#: Guard against absurd lengths produced by corrupted headers.
MAX_RECORD_BYTES = 16 * 1024 * 1024


#: The C encoder factory ``json`` itself builds with; ``None`` on an
#: interpreter without its accelerator.
_c_make_encoder = getattr(json.encoder, "c_make_encoder", None)


class _CanonicalEncoder(json.JSONEncoder):
    """The canonical encoder with its C encoder built once.

    ``JSONEncoder.encode`` builds a fresh C encoder, and the closures of
    ``iterencode``, on every call: most of what encoding a two-entry
    property section costs.  This one reuses one C encoder built without
    ``markers``, the table of the containers being encoded that detects a
    cycle.  One table shared between calls would be wrong: an encode that
    raises half-way leaves its containers in it, and the next encode of
    those objects would be called circular.  Without the table a cycle
    recurses to the interpreter's recursion limit, and only then does the
    checking encoder run, so a cycle still raises its ``ValueError``.
    Whatever encodes gives the same text either way.
    """

    def __init__(self) -> None:
        super().__init__(sort_keys=True, separators=(",", ":"))
        self._unchecked = _c_make_encoder(
            None, self.default, encode_basestring_ascii, None, self.key_separator,
            self.item_separator, self.sort_keys, self.skipkeys, self.allow_nan,
        )

    def encode(self, o: Any) -> str:
        try:
            return "".join(self._unchecked(o, 0))
        except RecursionError:
            return super().encode(o)


#: The one canonical payload encoding (sorted keys, no whitespace): a
#: parsed record re-encodes to the bytes it was parsed from.
_PAYLOAD_ENCODER: json.JSONEncoder = (
    json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    if _c_make_encoder is None
    else _CanonicalEncoder()
)


def durable_key(subscriber_id: str, topic: str) -> str:
    """Stable identity of a durable subscription across restarts.

    JMS identifies durable subscriptions by client id + subscription
    name, not by any in-memory handle; the journal's ``owed`` lists use
    this key so a replay into a freshly-constructed broker can still find
    the subscription it owes a retained copy to.
    """
    return f"{subscriber_id}|{topic}"


class JournalError(Exception):
    """Base class for journal failures."""


class JournalWriteError(JournalError):
    """An append could not be made durable (underlying disk write fault).

    The record must be treated as *not committed*: the producer-facing
    contract is fail-fast (a JMS provider raises ``JMSException`` when
    the persistent store rejects a send).
    """

    #: How many leading records of the failed call reached the log whole
    #: all the same: a failed disk write keeps a prefix, and the prefix
    #: of a run can hold entire records.  The journal counts them where
    #: they landed (``records_appended``, ``record_locations``) — a
    #: reader will see them — but the failed write left them unsynced:
    #: whoever retries a run resumes after them or the log carries them
    #: twice.
    records_written = 0


class RecordKind(enum.Enum):
    """The journalled state transitions of a persistent message."""

    #: A message was accepted for a destination (the commit point).
    PUBLISH = 1
    #: A copy was handed to a consumer/subscriber (un-acked if queue).
    DELIVER = 2
    #: Terminal: acknowledged, dead-lettered or dropped (``reason`` field).
    ACK = 3
    #: Terminal: the message's TTL elapsed before delivery completed.
    EXPIRE = 4
    #: A compaction snapshot of every live message at checkpoint time.
    CHECKPOINT = 5


@dataclass(slots=True)
class JournalRecord:
    """One decoded journal record: a kind plus its payload (a JSON
    object, except that message bodies in it are ``bytes``).

    Slotted and not frozen, like :class:`RecordLocation`: every parse
    builds one.
    """

    kind: RecordKind
    payload: Dict[str, Any]

    @property
    def destination(self) -> str:
        return str(self.payload.get("dest", ""))

    @property
    def domain(self) -> str:
        """``"queue"`` or ``"topic"``."""
        return str(self.payload.get("domain", "queue"))

    @property
    def message_id(self) -> int:
        return int(self.payload.get("mid", 0))


@dataclass(slots=True)
class RecordLocation:
    """Where one record landed on disk (used by the chaos harness).

    Built on demand by :attr:`Journal.record_locations`, one per record
    appended, so it is slotted and not frozen: a frozen dataclass costs
    0.5 µs to construct, this 0.2.
    """

    segment: str
    offset: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.offset


# ----------------------------------------------------------------------
# Message (de)serialisation
# ----------------------------------------------------------------------
def encode_message(message: Message) -> Dict[str, Any]:
    """The fields a PUBLISH record stores; ``"body"`` is the raw bytes."""
    return {
        "mid": message.message_id,
        "topic": message.topic,
        "cid": message.correlation_id,
        "props": dict(message.properties),
        "body": message.body,
        "prio": message.priority,
        "mode": message.delivery_mode.value,
        "ts": message.timestamp,
        "exp": message.expiration,
    }


def decode_message(fields: Dict[str, Any]) -> Message:
    """Rebuild a :class:`Message` from PUBLISH-record fields.

    The original ``message_id`` is preserved — it is the identity the
    deliver/ack/expire records refer to.
    """
    return Message(
        topic=str(fields["topic"]),
        correlation_id=fields.get("cid"),
        properties=dict(fields.get("props", {})),
        body=fields.get("body") or b"",
        priority=int(fields.get("prio", 4)),
        delivery_mode=DeliveryMode(fields.get("mode", "persistent")),
        timestamp=float(fields.get("ts", 0.0)),
        expiration=fields.get("exp"),
        message_id=int(fields["mid"]),
    )


def segment_version(data: bytes) -> Optional[int]:
    """The format version a segment's header declares.

    ``None`` when the header is torn or its magic is wrong.  Only
    :data:`SEGMENT_VERSION` is readable: a reader handed any other would
    take every record for corruption and repair it away.
    """
    if len(data) < SEGMENT_HEADER_SIZE or data[:4] != SEGMENT_MAGIC:
        return None
    return int(_SEGMENT_HEADER.unpack_from(data)[1])


def _message_with_body(holder: Any) -> Optional[Dict[str, Any]]:
    """Where a body lives: the ``"msg"`` dict of a PUBLISH payload or a
    CHECKPOINT entry, if it has a ``"body"`` key (``None`` otherwise)."""
    msg = holder.get("msg") if isinstance(holder, dict) else None
    return msg if isinstance(msg, dict) and "body" in msg else None


def _detach_body(holder: Any, blobs: List[bytes]) -> Any:
    """``holder`` as ``meta`` stores it: its message body moved to
    ``blobs``, that body's length in its place."""
    msg = _message_with_body(holder)
    if msg is None:
        return holder
    blobs.append(msg["body"])
    return {**holder, "msg": {**msg, "body": len(msg["body"])}}


def _attach_body(holder: Any, blobs: bytes, start: int) -> int:
    """The inverse, in place on a parsed ``meta``: swap the declared
    length for the bytes at ``blobs[start:]``; returns where they end.

    Raises :class:`ValueError` unless the length is a non-negative int.
    An over-run is the caller's to catch: ends only grow, so the last
    one then lies past the record.
    """
    msg = _message_with_body(holder)
    if msg is None:
        return start
    size = msg["body"]
    if type(size) is not int or size < 0:
        raise ValueError(f"body length {size!r} is not a non-negative int")
    msg["body"] = blobs[start : start + size]
    return start + size


def _atom(value: Any) -> str:
    """One value of an assembled ``meta``, exactly as the canonical
    encoder writes it.

    A ``str``, an ``int``, a finite ``float`` and ``None`` are written
    here; a subclass of those (``True`` is not ``1``), a non-finite float
    or a container is the encoder's, one value at a time.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or (kind is float and isfinite(value)):
        return repr(value)
    if value is None:
        return "null"
    return _PAYLOAD_ENCODER.encode(value)


#: The kind byte of each record a ``log_*`` call writes, read once here:
#: a member's ``value`` is a descriptor call.
_PUBLISH = RecordKind.PUBLISH.value
_DELIVER = RecordKind.DELIVER.value
_ACK = RecordKind.ACK.value
_EXPIRE = RecordKind.EXPIRE.value
#: The ``"mode"`` atom of the one delivery mode the broker journals.
_PERSISTENT = DeliveryMode.PERSISTENT
_PERSISTENT_ATOM = _atom(_PERSISTENT.value)
#: How many routes a journal's memo holds before it starts afresh.
_ROUTES_KEPT = 4096


def _seal(code: int, meta: str, blobs: bytes = b"") -> bytes:
    """The wire bytes of one record of kind byte ``code`` from its two
    sections, ``meta`` already canonical JSON text (so ASCII); the body
    is copied once.

    Raises :class:`JournalWriteError` for a record longer than
    :data:`MAX_RECORD_BYTES`, which every reader refuses: refused here,
    before a byte of it is written, it is a send that failed rather than
    a commit that recovery quarantines.
    """
    head = meta.encode()
    front = _BODY_PREFIX.pack(code, len(head)) + head
    length = len(front) + len(blobs)
    if length > MAX_RECORD_BYTES:
        raise JournalWriteError(
            f"a record of {length} bytes exceeds the {MAX_RECORD_BYTES}-byte "
            f"limit every reader of the journal enforces"
        )
    crc = zlib.crc32(blobs, zlib.crc32(front)) if blobs else zlib.crc32(front)
    return b"".join((_RECORD_HEADER.pack(length, crc), front, blobs))


def _frame(kind: RecordKind, meta: Dict[str, Any], blobs: bytes = b"") -> bytes:
    """The same from a ``meta`` still to be serialised."""
    return _seal(kind.value, _PAYLOAD_ENCODER.encode(meta), blobs)


def encode_record(record: JournalRecord) -> bytes:
    """Record wire format v2 (see the module docstring)."""
    kind, payload = record.kind, record.payload
    blobs: List[bytes] = []
    if kind is RecordKind.PUBLISH:
        payload = _detach_body(payload, blobs)
    elif kind is RecordKind.CHECKPOINT and isinstance(payload.get("entries"), list):
        entries = [_detach_body(entry, blobs) for entry in payload["entries"]]
        payload = {**payload, "entries": entries}
    return _frame(kind, payload, b"".join(blobs))


# ----------------------------------------------------------------------
# Sync policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyncPolicy:
    """When the journal fsyncs: after every commit, in groups, or never.

    The policy is asked once per commit (:meth:`Journal.append_run`), not
    once per record: ``always`` fsyncs every commit before the call that
    made it returns, and a batch stage is one commit
    (:meth:`Journal.commit`), so the ``b`` of the ``t_sync/b`` model is
    ``X`` for a batch of ``X`` under ``always`` and ``max(X, batch)``
    under ``group_commit``.
    """

    mode: str
    batch: int = 1
    interval: Optional[float] = None

    _MODES = ("always", "group_commit", "never")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"sync mode must be one of {self._MODES}, got {self.mode!r}")
        if self.batch < 1 or int(self.batch) != self.batch:
            raise ValueError(f"sync batch must be a positive integer, got {self.batch}")
        if self.interval is not None and self.interval <= 0:
            raise ValueError(f"sync interval must be positive, got {self.interval}")

    @classmethod
    def always(cls) -> "SyncPolicy":
        return cls(mode="always")

    @classmethod
    def never(cls) -> "SyncPolicy":
        return cls(mode="never")

    @classmethod
    def group_commit(
        cls, batch: int = 8, interval: Optional[float] = None
    ) -> "SyncPolicy":
        return cls(mode="group_commit", batch=batch, interval=interval)

    @classmethod
    def parse(cls, text: str) -> "SyncPolicy":
        """Parse ``"always"``, ``"never"`` or ``"group:<batch>"``."""
        lowered = text.strip().lower()
        if lowered == "always":
            return cls.always()
        if lowered == "never":
            return cls.never()
        if lowered.startswith(("group:", "group_commit:")):
            _, _, raw = lowered.partition(":")
            try:
                return cls.group_commit(batch=int(raw))
            except ValueError as exc:
                raise ValueError(f"bad group-commit batch {raw!r}") from exc
        raise ValueError(
            f"unknown sync policy {text!r}; expected always, never or group:<batch>"
        )

    @property
    def amortized_batch(self) -> float:
        """Records per fsync — the ``b`` in the ``t_sync/b`` cost model.

        ``never`` amortises over infinitely many records (cost 0);
        ``always`` over exactly one.  This is the ``b`` of lone appends;
        a commit of more records than this amortises over itself.
        """
        if self.mode == "never":
            return float("inf")
        if self.mode == "always":
            return 1.0
        return float(self.batch)

    def describe(self) -> str:
        if self.mode == "group_commit":
            suffix = f", {self.interval:g}s" if self.interval is not None else ""
            return f"group_commit(batch={self.batch}{suffix})"
        return self.mode


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class Journal:
    """A segmented append-only log with pluggable sync policies.

    Opening a :class:`Journal` on a disk that already holds segments
    resumes at the tail of the newest one (the post-recovery state);
    otherwise the first segment is created.

    Example
    -------
    >>> from repro.rng import RandomStreams
    >>> journal = Journal(SimulatedDisk(RandomStreams(seed=1)))
    >>> from repro.broker.message import Message
    >>> lsn = journal.log_publish("queue", "orders", Message(topic="orders"))
    >>> journal.records_appended
    1
    """

    def __init__(
        self,
        disk: Optional[SimulatedDisk] = None,
        name: str = "journal",
        sync: SyncPolicy = SyncPolicy.always(),
        segment_bytes: int = 64 * 1024,
    ):
        if segment_bytes < 256:
            raise ValueError(f"segment_bytes must be >= 256, got {segment_bytes}")
        self.disk = disk if disk is not None else SimulatedDisk()
        self.name = name
        self.sync_policy = sync
        self.segment_bytes = segment_bytes
        # -- counters ----------------------------------------------------
        self.records_appended = 0
        self.syncs = 0
        self.rotations = 0
        self.checkpoints = 0
        self.segments_compacted = 0
        self.write_failures = 0
        #: Where every record appended by *this* journal object (not
        #: recovered ones) landed, as flat ints.  Run ``k`` — records that
        #: landed back to back in segment ``_run_segments[k]`` from offset
        #: ``_run_offsets[k]`` — holds records ``_run_firsts[k]`` up to the
        #: next run's first, and record ``i`` ends at ``_ends[i]``; it
        #: starts where the record before it in its run ends.  No object
        #: per record: :attr:`record_locations` builds those.
        self._ends: List[int] = []
        self._run_segments: List[str] = []
        self._run_offsets: List[int] = []
        self._run_firsts: List[int] = []
        self._segment_index = 0
        self._current = ""
        #: Segments that may hold bytes beyond their fsync watermark.  The
        #: invariant is one-way — *unsynced bytes imply membership* — so
        #: :meth:`sync` never has to list the disk to find its work.
        self._dirty: Set[str] = set()
        self._unsynced_records = 0
        self._last_sync_at = 0.0
        #: Set after a failed append: the segment tail may hold a partial
        #: record, so the next append must rotate to a clean segment.
        self._tail_dirty = False
        #: The ``"dest":…,"domain":…`` text of each route this journal has
        #: written, by (domain, destination): see :meth:`_route`.
        self._routes: Dict[Tuple[str, str], str] = {}
        #: The records an open :meth:`commit` scope holds back, in
        #: logging order; ``None`` outside a scope (write-through).
        self._held: Optional[List[bytes]] = None
        #: Told of every stretch of :meth:`append_run` right after it lands
        #: whole, as ``follower(segment, offset, records, disk.changes)``:
        #: the segment and offset the stretch starts at, its records, and
        #: the disk's change counter after the write.  Nothing is told of a
        #: failed write.  A replication shipper's
        #: :meth:`~repro.durability.tail.JournalTailer.feed` goes here, so
        #: the bytes just written need not be read back; ``None`` costs one
        #: test a stretch.
        self.follower: Optional[Callable[[str, int, Sequence[bytes], int], None]] = None
        #: Name of a resumed tail segment whose header was torn/missing
        #: and that :meth:`_open` had to repair (``None`` when the resume
        #: was clean); recovery surfaces it in the report.
        self.tail_repaired: Optional[str] = None
        self._open()

    # ------------------------------------------------------------------
    def _segment_name(self, index: int) -> str:
        return f"{self.name}.{index:08d}.seg"

    @property
    def segments(self) -> List[str]:
        """This journal's segment files, oldest first."""
        prefix = f"{self.name}."
        return [
            f for f in self.disk.list() if f.startswith(prefix) and f.endswith(".seg")
        ]

    @property
    def current_segment(self) -> str:
        return self._current

    @property
    def size_bytes(self) -> int:
        return sum(self.disk.length(segment) for segment in self.segments)

    @property
    def unsynced_bytes(self) -> int:
        return sum(
            self.disk.length(segment) - self.disk.synced_length(segment)
            for segment in self.segments
        )

    def _open(self) -> None:
        existing = self.segments
        if not existing:
            self._create_segment(0)
            return
        # A predecessor under ``never`` (or one that died before its group
        # commit) may have left unsynced bytes behind: they are this
        # journal's to flush now.
        disk = self.disk
        self._dirty.update(
            s for s in existing if disk.length(s) > disk.synced_length(s)
        )
        last = existing[-1]
        self._segment_index = int(last[len(self.name) + 1 : -4])
        self._current = last
        data = disk.read(last)
        if segment_version(data) == SEGMENT_VERSION:
            return  # valid header: resume appending at the tail
        # The tail segment has a torn or missing header (a crash can cut
        # inside the 10 header bytes: rotation appends them unsynced) or
        # declares a format this program does not write.  Appending here
        # would be fatal later — the next recovery scan rejects the whole
        # segment on its header, silently discarding records that were
        # synced and acknowledged after the resume.  Repair before the
        # first append instead.
        self.tail_repaired = last
        if len(data) == 0:
            # Nothing of the segment ever reached the platter; recreate
            # it in place with a valid header.
            self.disk.delete(last)
            self._create_segment(self._segment_index)
        else:
            # Leave the unreadable bytes for the recovery scan to
            # quarantine (never rewrite history) and append after them.
            self._create_segment(self._segment_index + 1)

    def _create_segment(self, index: int) -> None:
        name = self._segment_name(index)
        self.disk.create(name)
        # Before the write: a torn header is dirt too, and the file it
        # sits in is this journal's newest whether the write lands or not.
        self._dirty.add(name)
        self._segment_index = index
        self._current = name
        self.disk.append(
            name, _SEGMENT_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, index)
        )
        self._tail_dirty = False

    def _rotate(self) -> None:
        # The retiring segment becomes immutable; make it durable unless
        # the policy is to never pay for syncs.
        if self.sync_policy.mode != "never":
            self._sync_current()
        try:
            self._create_segment(self._segment_index + 1)
        except DiskWriteError as exc:
            # The torn header stays for the recovery scan to quarantine;
            # the next append rotates past it to a fresh segment.
            self.write_failures += 1
            self._tail_dirty = True
            raise JournalWriteError(
                f"journal rotation failed on the header of {self._current}: {exc}"
            ) from exc
        self.rotations += 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: JournalRecord, now: float = 0.0) -> int:
        """Append one record; returns its log sequence number.

        Raises :class:`JournalWriteError` when the disk write fails
        mid-record or on the header of the segment it rotated to; the
        tail is marked dirty and the next append rotates to a fresh
        segment so later records stay recoverable.
        """
        return self.append_encoded(encode_record(record), now=now)

    def append_encoded(self, encoded: bytes, now: float = 0.0) -> int:
        """Append one record already in wire format.

        ``encoded`` is :func:`encode_record` output or the bytes a reader
        has CRC-verified and parsed (the standby appends what was shipped
        instead of re-serialising its parse).  Same contract as
        :meth:`append`.  A run of one: see :meth:`append_run`.
        """
        return self.append_run((encoded,), now=now)

    def append_run(self, records: Sequence[bytes], now: float = 0.0) -> int:
        """Append records already in wire format as one commit.

        The bytes land exactly where appending the records one by one
        would put them — a rotation falls before the first record that
        finds its segment full — but each stretch of records that share a
        segment costs one disk write and one sync-policy decision, not
        one per record.  Returns the log sequence number of the first.
        Inside a :meth:`commit` scope the records are held for the
        scope's exit to write instead.

        On a write fault the records already appended stay appended, the
        tail is marked dirty and :class:`JournalWriteError` says in
        ``records_written`` how many of ``records`` are on the log whole
        — counted, each where it landed, but not synced by this call.
        """
        held = self._held
        if held is not None:
            first = self.records_appended + len(held)
            held.extend(records)
            return first
        first = self.records_appended
        disk, limit = self.disk, self.segment_bytes
        start, count = 0, len(records)
        while start < count:
            segment = self._current
            if self._tail_dirty or (size := disk.length(segment)) >= limit:
                try:
                    self._rotate()
                except JournalWriteError as exc:
                    exc.records_written = start
                    raise
                segment, size = self._current, SEGMENT_HEADER_SIZE
            # This stretch: every record that finds the segment not yet full.
            stop = start + 1
            chunk = records[start]
            if stop < count:
                filled = size + len(chunk)
                while stop < count and filled < limit:
                    filled += len(records[stop])
                    stop += 1
                chunk = b"".join(records[start:stop])
            self._dirty.add(segment)  # before the write: a partial one is dirt too
            try:
                offset = disk.append(segment, chunk)
            except DiskWriteError as exc:
                self.write_failures += 1
                self._tail_dirty = True
                kind = RecordKind(chunk[RECORD_HEADER_SIZE]).name
                error = JournalWriteError(
                    f"journal append of {kind} to {segment} failed: {exc}"
                )
                # The whole records of the prefix that did land are on
                # the log: counted where they are, though not synced.
                landed, end, whole = disk.length(segment), size, start
                while whole < stop and end + len(records[whole]) <= landed:
                    end += len(records[whole])
                    whole += 1
                self._landed(segment, size, records, start, whole)
                error.records_written = whole
                raise error from exc
            self._landed(segment, offset, records, start, stop)
            if self.follower is not None:
                self.follower(segment, offset, records[start:stop], disk.changes)
            self._maybe_sync(now)
            start = stop
        return first

    def _landed(
        self, segment: str, offset: int, records: Sequence[bytes], start: int, stop: int
    ) -> None:
        """Count ``records[start:stop]``, which landed back to back in
        ``segment`` from ``offset``, and note where each ends.

        A run never has a gap: an append in the run's segment starts where
        the last one ended, and a failed write dirties the tail, so the
        next append rotates and opens a new run.
        """
        ends = self._ends
        runs = self._run_segments
        if not runs or runs[-1] != segment:
            runs.append(segment)
            self._run_offsets.append(offset)
            self._run_firsts.append(len(ends))
        for index in range(start, stop):
            offset += len(records[index])
            ends.append(offset)
        self.records_appended += stop - start
        self._unsynced_records += stop - start

    def follow(
        self, follower: Optional[Callable[[str, int, Sequence[bytes], int], None]]
    ) -> None:
        """Set (or, with ``None``, clear) the :attr:`follower`."""
        self.follower = follower

    @property
    def record_locations(self) -> List[RecordLocation]:
        """Where each record appended by this journal object landed,
        oldest first, back to the last checkpoint: the chaos harness
        enumerates its crash points at these boundaries.  Built afresh on
        each read."""
        ends, firsts = self._ends, self._run_firsts
        locations = []
        for segment, offset, first, stop in zip(
            self._run_segments, self._run_offsets, firsts, firsts[1:] + [len(ends)]
        ):
            for end in ends[first:stop]:
                locations.append(RecordLocation(segment, offset, end))
                offset = end
        return locations

    def commit(self, now: float = 0.0) -> "CommitScope":
        """A scope whose appends are one commit: ``with journal.commit(now):``.

        Every ``log_*`` / ``append*`` call inside the block seals its
        record as ever but holds it; the exit — also when the block
        raises — writes the held records, in logging order, as one
        :meth:`append_run`: the bytes one-by-one appends would have
        landed, at one disk write and one sync-policy decision per
        stretch sharing a segment.  A scope admits only appends: a
        nested ``commit``, a checkpoint, :meth:`sync` and :meth:`close`
        raise :class:`JournalError`.

        A write fault tears one record of the run — the first the kept
        prefix does not hold whole, or its last when the prefix holds
        them all: the write failed, as a failed single append fails.
        The whole records before it are committed, the torn one is
        reported in :attr:`CommitScope.torn` and the rest is retried as
        a fresh run on a fresh segment (the rotation fsyncs the retiring
        one).  When anything tore, nothing the scope committed stays
        above the fsync watermark unless the policy is ``never``.
        """
        return CommitScope(self, now)

    def _hold(self) -> None:
        """Open a commit scope: hold every append from here on."""
        self._outside_scope("commit")
        self._held = []

    def _write_held(self, now: float, torn: List[int]) -> None:
        """Close the scope: write what it held, noting in ``torn`` the
        position of each record a write fault cost."""
        held, self._held = self._held or [], None
        done, count = 0, len(held)
        while done < count:
            try:
                self.append_run(held[done:], now=now)
                break
            except JournalWriteError as exc:
                done += min(exc.records_written, count - done - 1)
                torn.append(done)
                done += 1
        if torn and self._dirty and self.sync_policy.mode != "never":
            self._sync_dirty()

    def _outside_scope(self, call: str) -> None:
        if self._held is not None:
            raise JournalError(
                f"{call} inside a commit scope: a scope admits only appends"
            )

    def _maybe_sync(self, now: float) -> None:
        """Apply the sync policy right after a successful append."""
        policy = self.sync_policy
        if policy.mode == "never":
            return
        if policy.mode == "group_commit":
            unsynced = self._unsynced_records
            late = policy.interval is not None and now - self._last_sync_at >= policy.interval
            if unsynced < policy.batch and not (late and unsynced > 0):
                return
        # The record just appended makes the current segment dirty by
        # construction, so one remembered segment is the current one:
        # nothing to order, nothing to test.  Otherwise only the others
        # need testing.
        if len(self._dirty) == 1:
            self._sync_current()
        else:
            self._sync_dirty(known_dirty=self._current)
        self._last_sync_at = now

    def _sync_current(self) -> None:
        self.disk.sync(self._current)
        self._dirty.discard(self._current)
        self.syncs += 1
        self._unsynced_records = 0

    def sync(self) -> None:
        """fsync every segment with unsynced bytes, oldest first."""
        self._outside_scope("sync")
        self._sync_dirty()

    def _sync_dirty(self, known_dirty: Optional[str] = None) -> None:
        # Membership only says "may be dirty" (a ``tear_tail`` or a
        # recovery ``truncate`` can have cut a segment back to its
        # watermark), so each remembered segment is still tested: a clean
        # file is never fsynced.
        disk = self.disk
        for segment in sorted(self._dirty):
            if segment == known_dirty or (
                disk.length(segment) > disk.synced_length(segment)
            ):
                disk.sync(segment)
        self._dirty.clear()
        self.syncs += 1
        self._unsynced_records = 0

    def close(self) -> None:
        """Clean shutdown: flush everything (even under ``never``)."""
        self.sync()

    # ------------------------------------------------------------------
    # Semantic append helpers (the broker-facing protocol)
    # ------------------------------------------------------------------
    def _route(self, domain: Any, destination: Any) -> str:
        """The ``"dest":…,"domain":…`` fragment every record starts with.

        Remembered per journal, and only for two exact ``str``: only for
        those does an equal key mean equal text.  ``True``, ``1`` and
        ``1.0`` are one dict key and three atoms, and a ``str`` subclass
        may define its own equality.  A memo grown to
        :data:`_ROUTES_KEPT` starts afresh.
        """
        if type(domain) is not str or type(destination) is not str:
            return f'"dest":{_atom(destination)},"domain":{_atom(domain)}'
        routes = self._routes
        route = routes.get((domain, destination))
        if route is None:
            if len(routes) >= _ROUTES_KEPT:
                routes.clear()
            route = f'"dest":{_atom(destination)},"domain":{_atom(domain)}'
            routes[domain, destination] = route
        return route

    def log_publish(
        self,
        domain: str,
        destination: str,
        message: Message,
        owed: Sequence[str] = (),
        now: float = 0.0,
    ) -> int:
        """The commit point of a persistent message.

        ``owed`` lists the :func:`durable_key` of each durable
        subscription still owed a topic message (empty for queues, where
        a single backlog entry exists).
        """
        mid = _atom(message.message_id)
        body, props, mode = message.body, message.properties, message.delivery_mode
        properties = _PAYLOAD_ENCODER.encode(props) if props else "{}"
        tail = f',"owed":{_PAYLOAD_ENCODER.encode(list(owed))}' if owed else ""
        meta = (
            f'{{{self._route(domain, destination)},"mid":{mid},'
            f'"msg":{{"body":{len(body)},"cid":{_atom(message.correlation_id)},'
            f'"exp":{_atom(message.expiration)},"mid":{mid},'
            f'"mode":{_PERSISTENT_ATOM if mode is _PERSISTENT else _atom(mode.value)},'
            f'"prio":{_atom(message.priority)},"props":{properties},'
            f'"topic":{_atom(message.topic)},"ts":{_atom(message.timestamp)}}}{tail}}}'
        )
        return self.append_run((_seal(_PUBLISH, meta, body),), now)

    def log_deliver(
        self,
        domain: str,
        destination: str,
        message_id: int,
        consumer: "str | int",
        now: float = 0.0,
    ) -> int:
        meta = (
            f'{{"consumer":{_atom(consumer)},{self._route(domain, destination)},'
            f'"mid":{_atom(message_id)}}}'
        )
        return self.append_run((_seal(_DELIVER, meta),), now)

    def log_ack(
        self,
        domain: str,
        destination: str,
        message_id: int,
        reason: str = "acked",
        now: float = 0.0,
    ) -> int:
        meta = (
            f'{{{self._route(domain, destination)},'
            f'"mid":{_atom(message_id)},"reason":{_atom(reason)}}}'
        )
        return self.append_run((_seal(_ACK, meta),), now)

    def log_expire(
        self, domain: str, destination: str, message_id: int, now: float = 0.0
    ) -> int:
        meta = f'{{{self._route(domain, destination)},"mid":{_atom(message_id)}}}'
        return self.append_run((_seal(_EXPIRE, meta),), now)

    # ------------------------------------------------------------------
    # Checkpoint / compaction
    # ------------------------------------------------------------------
    def checkpoint(
        self, live: Iterable[Dict[str, Any]], now: float = 0.0
    ) -> Tuple[int, int]:
        """Snapshot the live state and drop the history before it.

        ``live`` is a sequence of entries in the shape
        :func:`repro.durability.recovery.live_state` produces: each holds
        the PUBLISH payload plus its delivery bookkeeping.  Encodes them
        as one CHECKPOINT record and compacts through
        :meth:`checkpoint_encoded`.

        Returns ``(lsn, segments_deleted)``.
        """
        record = JournalRecord(RecordKind.CHECKPOINT, {"entries": list(live)})
        return self.checkpoint_encoded(encode_record(record), now=now)

    def checkpoint_encoded(self, encoded: bytes, now: float = 0.0) -> Tuple[int, int]:
        """Compact the log down to one CHECKPOINT record in wire format.

        ``encoded`` is this journal's own snapshot or the CHECKPOINT a
        replica was shipped: the standby compacts at the record the
        primary compacted at.  The record is written to a *fresh* segment
        and synced before any old segment of this journal's name is
        deleted, so a crash at any byte of this sequence recovers either
        from the old history or from the new checkpoint — never from
        neither.  A write fault on the way raises
        :class:`JournalWriteError` before anything is deleted.

        Returns ``(lsn, segments_deleted)``.
        """
        self._outside_scope("checkpoint")
        self._rotate()
        keep = self.current_segment
        lsn = self.append_encoded(encoded, now=now)
        self._sync_current()
        deleted = 0
        for segment in self.segments:
            if segment != keep:
                self.disk.delete(segment)
                self._dirty.discard(segment)
                deleted += 1
        # Only ``keep`` survives, and the checkpoint record just opened
        # its run: the last one.
        del self._ends[: self._run_firsts[-1]]
        self._run_segments, self._run_offsets = [keep], self._run_offsets[-1:]
        self._run_firsts = [0]
        self.checkpoints += 1
        self.segments_compacted += deleted
        return lsn, deleted

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"journal {self.name!r}: {len(self.segments)} segment(s), "
            f"{self.size_bytes} bytes, {self.records_appended} record(s), "
            f"{self.syncs} sync(s), policy {self.sync_policy.describe()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal({self.name!r}, {len(self.segments)} segments)"


class CommitScope:
    """One :meth:`Journal.commit`, as a context manager: entering opens
    the scope on its journal, leaving closes it — both through the
    journal's own methods — and :attr:`torn` then says what tore."""

    __slots__ = ("_journal", "_now", "torn")

    def __init__(self, journal: Journal, now: float) -> None:
        self._journal, self._now = journal, now
        #: Positions, in logging order, of the records a write fault
        #: tore: not committed, each to be treated as its ``log_*`` call
        #: having raised :class:`JournalWriteError`.
        self.torn: List[int] = []

    def __enter__(self) -> "CommitScope":
        self._journal._hold()
        return self

    def __exit__(self, *raised: object) -> None:
        self._journal._write_held(self._now, self.torn)


# Keep dataclass field defaults out of the class namespace for mypy.
_ = field
