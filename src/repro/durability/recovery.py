"""Crash recovery: scan, repair and replay the journal into a broker.

Recovery proceeds in three phases, none of which may raise out of
:meth:`repro.broker.Broker.recover`:

1. **Scan** (:func:`scan_disk`): walk every segment in order, validating
   each record structurally (length sane, body complete) and by CRC.  A
   parse failure is classified by *probing* for the next valid record:

   - a valid record exists later in the segment → **mid-log corruption**;
     the bad byte range is quarantined (skipped, reported) and scanning
     resumes at the probe point — latent media errors must not erase the
     good history after them;
   - no valid record follows and this is the *final* segment → **torn
     tail**; the file is truncated at the failure offset (the classic
     partially-written last record) and recovery proceeds — by the
     write-ahead contract nothing after an unsynced tail was ever
     acknowledged durable;
   - no valid record follows in a *non-final* segment → the remainder is
     quarantined and scanning continues with the next segment.

   A segment whose header declares another format version is not ours to
   classify at all: it is quarantined whole and left byte for byte as
   found, wherever it sits.

2. **Fold** (:func:`fold_records`): reduce the record stream to the set
   of *live* messages — published, not yet terminally acked/expired —
   with their delivery counts and, for topics, the durable subscriptions
   still owed a copy.  A ``CHECKPOINT`` record resets the fold to its
   snapshot (compaction made everything before it redundant).

3. **Apply** (:func:`recover_broker`): requeue each live queue message
   exactly once via :meth:`PointToPointQueue.restore` — delivered-but-
   unacked copies come back flagged ``redelivered`` and are charged
   against the redelivery budget (dead-lettering poison messages at
   recovery, not after another crash loop); messages whose TTL elapsed
   while the server was down are expired, not delivered late.  Terminal
   fates decided here are journalled back (EXPIRE / ACK ``dead_letter``)
   so the log converges: replaying it again does not re-decide — and
   re-count — the same fate.  Live topic messages are re-retained on the
   durable subscriptions still owed them.

The structured :class:`RecoveryReport` records every repair decision so
the chaos harness (and operators) can audit what recovery did.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .disk import SimulatedDisk
from .journal import (
    _RECORD_FRONT,
    BODY_PREFIX_SIZE,
    MAX_RECORD_BYTES,
    RECORD_HEADER_SIZE,
    SEGMENT_HEADER_SIZE,
    SEGMENT_VERSION,
    Journal,
    JournalError,
    JournalRecord,
    RecordKind,
    _attach_body,
    decode_message,
    durable_key,
    encode_message,
    segment_version,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..broker.server import Broker

__all__ = [
    "QuarantinedRange",
    "TornTail",
    "ScanResult",
    "LiveEntry",
    "IncrementalFold",
    "RecoveryReport",
    "scan_disk",
    "fold_records",
    "collect_live_entries",
    "recover_broker",
]

# ----------------------------------------------------------------------
# Scan phase
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuarantinedRange:
    """A byte range that failed validation and was skipped, not replayed."""

    segment: str
    start: int
    end: int
    reason: str

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TornTail:
    """A partially-written final record, truncated away during recovery."""

    segment: str
    offset: int
    bytes_discarded: int


@dataclass
class ScanResult:
    """Everything the scan phase salvaged and every repair it made."""

    records: List[JournalRecord] = field(default_factory=list)
    segments_scanned: int = 0
    bytes_scanned: int = 0
    torn_tail: Optional[TornTail] = None
    quarantined: List[QuarantinedRange] = field(default_factory=list)

    @property
    def bytes_quarantined(self) -> int:
        return sum(q.length for q in self.quarantined)


#: ``meta`` is decoded by one module-level decoder, and must be the whole
#: of its extent: ``raw_decode`` skips no whitespace before the value and
#: the end check allows none after it.
_decode_meta = json.JSONDecoder().raw_decode
_KIND_OF_BYTE = {kind.value: kind for kind in RecordKind}


def _try_parse(data: bytes, offset: int) -> Optional[Tuple[JournalRecord, int]]:
    """Parse one record at ``offset``; ``None`` unless *everything* checks.

    A record is accepted only if the length is sane, the body is fully
    present, the CRC matches, the kind byte is known, ``meta`` is valid
    JSON — all of it, with no whitespace around the value: padding could
    never re-encode to the bytes it was parsed from — and the body
    lengths it declares tile the rest of the record exactly.  The
    conjunction makes a false positive during probe scanning (finding a
    "record" inside corrupted bytes) astronomically unlikely.  Bodies
    come back as ``bytes`` in place of their lengths.
    """
    if offset + _RECORD_FRONT.size > len(data):
        return None
    length, crc, kind_byte, meta_len = _RECORD_FRONT.unpack_from(data, offset)
    tiled = BODY_PREFIX_SIZE + meta_len
    if tiled > length or length > MAX_RECORD_BYTES:
        return None
    body_start = offset + RECORD_HEADER_SIZE
    body_end = body_start + length
    if body_end > len(data):
        return None
    body = data[body_start:body_end]
    if zlib.crc32(body) != crc:
        return None
    kind = _KIND_OF_BYTE.get(kind_byte)
    if kind is None:
        return None
    try:
        text = body[BODY_PREFIX_SIZE:tiled].decode("utf-8")
        payload, end = _decode_meta(text)
        if end != len(text) or not isinstance(payload, dict):
            return None
        # Only these two kinds look past ``meta``.
        if kind is RecordKind.PUBLISH:
            tiled = _attach_body(payload, body, tiled)
        elif kind is RecordKind.CHECKPOINT:
            entries = payload.get("entries")
            for entry in entries if isinstance(entries, list) else ():
                tiled = _attach_body(entry, body, tiled)
    except (ValueError, UnicodeDecodeError):
        return None
    if tiled != length:
        return None
    return JournalRecord(kind, payload), body_end


def _probe(data: bytes, start: int) -> Optional[int]:
    """First offset ``> start`` where a fully valid record begins."""
    for offset in range(start + 1, len(data) - RECORD_HEADER_SIZE + 1):
        if _try_parse(data, offset) is not None:
            return offset
    return None


def scan_disk(disk: SimulatedDisk, name: str = "journal") -> ScanResult:
    """Scan (and repair) every journal segment on ``disk``.

    Repairs mutate the disk: a torn tail on the final segment is
    truncated so subsequent appends continue from a clean boundary, and
    a final segment whose *header* is torn is deleted outright (a
    headerless file must never be resumed for appending).  Mid-log
    corruption is *not* rewritten — the bytes stay quarantined in place
    (rewriting history would forge a CRC over unknown data) — and
    neither is a segment of another format version, wherever it sits.
    """
    prefix = f"{name}."
    segments = [f for f in disk.list() if f.startswith(prefix) and f.endswith(".seg")]
    result = ScanResult()
    for position, segment in enumerate(segments):
        data = disk.read(segment)
        final = position == len(segments) - 1
        result.segments_scanned += 1
        result.bytes_scanned += len(data)
        # Segment header: a torn/bad header invalidates the whole file.
        version = segment_version(data)
        if version is None:
            if final:
                # Delete the file rather than truncating it to 0 bytes: a
                # leftover headerless segment would be resumed verbatim by
                # ``Journal._open`` and every record appended (synced,
                # acknowledged) into it would be discarded by the *next*
                # scan's header check — silent loss of committed data.
                result.torn_tail = TornTail(segment, 0, len(data))
                disk.delete(segment)
            else:
                result.quarantined.append(
                    QuarantinedRange(segment, 0, len(data), "bad segment header")
                )
            continue
        if version != SEGMENT_VERSION:
            # Written by something else: its records would all read as
            # corruption.  Keep every byte, final segment included.
            result.quarantined.append(
                QuarantinedRange(
                    segment, 0, len(data), f"unsupported segment version {version}"
                )
            )
            continue
        offset = SEGMENT_HEADER_SIZE
        while offset < len(data):
            parsed = _try_parse(data, offset)
            if parsed is not None:
                record, offset = parsed
                result.records.append(record)
                continue
            resume = _probe(data, offset)
            if resume is not None:
                result.quarantined.append(
                    QuarantinedRange(segment, offset, resume, "mid-log corruption")
                )
                offset = resume
                continue
            if final:
                result.torn_tail = TornTail(segment, offset, len(data) - offset)
                disk.truncate(segment, offset)
            else:
                result.quarantined.append(
                    QuarantinedRange(
                        segment, offset, len(data), "unreadable segment remainder"
                    )
                )
            break
    return result


# ----------------------------------------------------------------------
# Fold phase
# ----------------------------------------------------------------------
@dataclass
class LiveEntry:
    """One live (committed, non-terminal) message in the folded state."""

    domain: str
    destination: str
    message_fields: Dict[str, Any]
    delivers: int = 0
    #: :func:`~repro.durability.journal.durable_key` of each durable
    #: subscription still owed this (topic) message.
    owed: List[str] = field(default_factory=list)
    lsn: int = 0

    def to_payload(self) -> Dict[str, Any]:
        """The CHECKPOINT wire shape (mirrors :func:`entry_from_payload`)."""
        payload: Dict[str, Any] = {
            "domain": self.domain,
            "dest": self.destination,
            "mid": int(self.message_fields["mid"]),
            "msg": self.message_fields,
            "delivers": self.delivers,
        }
        if self.owed:
            payload["owed"] = list(self.owed)
        return payload


def entry_from_payload(payload: Dict[str, Any], lsn: int) -> LiveEntry:
    return LiveEntry(
        domain=str(payload.get("domain", "queue")),
        destination=str(payload.get("dest", "")),
        message_fields=dict(payload["msg"]),
        delivers=int(payload.get("delivers", 0)),
        owed=[str(s) for s in payload.get("owed", [])],
        lsn=lsn,
    )


@dataclass
class FoldResult:
    """The live state plus the bookkeeping the report wants."""

    live: Dict[Tuple[str, str, int], LiveEntry] = field(default_factory=dict)
    records_by_kind: Dict[str, int] = field(default_factory=dict)
    terminal: Dict[str, int] = field(default_factory=dict)
    unmatched: int = 0
    checkpoint_used: bool = False
    #: CRC-valid records whose JSON payload did not have the expected
    #: schema — skipped and reported, never allowed to raise (the
    #: ``Broker.recover`` no-raise contract covers the fold phase too).
    malformed: List[str] = field(default_factory=list)

    def ordered_live(self) -> List[LiveEntry]:
        return sorted(self.live.values(), key=lambda e: e.lsn)


class IncrementalFold:
    """Fold records one at a time — the standby's continuous-apply path.

    :func:`fold_records` is this folder driven over a complete list; a
    replication standby (:mod:`repro.replication.standby`) instead pushes
    each shipped record as it arrives, keeping its warm state current
    without refolding history.  A CHECKPOINT record resets the live set
    to its snapshot exactly as in batch folding, which is what makes a
    tail reader's compaction reposition
    (:class:`~repro.durability.tail.JournalTailer`) lossless.
    """

    def __init__(self) -> None:
        self.result = FoldResult()
        self._lsn = 0

    @property
    def records_folded(self) -> int:
        return self._lsn

    def push(self, record: JournalRecord) -> None:
        """Fold one record; malformed payloads are reported, never raised."""
        lsn = self._lsn
        self._lsn += 1
        self.result.records_by_kind[record.kind.name] = (
            self.result.records_by_kind.get(record.kind.name, 0) + 1
        )
        try:
            _fold_one(self.result, lsn, record)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            self.result.malformed.append(
                f"record {lsn} ({record.kind.name}): malformed payload ({exc!r})"
            )


def fold_records(records: List[JournalRecord]) -> FoldResult:
    """Reduce the record stream to the set of live messages.

    DELIVER/ACK/EXPIRE records whose message is unknown (its PUBLISH fell
    inside a quarantined range, or preceded a checkpoint that already
    retired it) are counted ``unmatched`` — replay is tolerant, never
    load-bearing on corrupted history.  A record whose CRC passes but
    whose payload lacks the expected schema is skipped and reported in
    :attr:`FoldResult.malformed` instead of raising.
    """
    fold = IncrementalFold()
    for record in records:
        fold.push(record)
    return fold.result


def _fold_one(result: FoldResult, lsn: int, record: JournalRecord) -> None:
    if record.kind is RecordKind.CHECKPOINT:
        result.live = {}
        entries = record.payload.get("entries", [])
        if not isinstance(entries, list):
            raise ValueError(
                f"checkpoint 'entries' is {type(entries).__name__}, not a list"
            )
        for position, payload in enumerate(entries):
            try:
                entry = entry_from_payload(payload, lsn)
                key = (entry.domain, entry.destination, int(entry.message_fields["mid"]))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                result.malformed.append(
                    f"record {lsn} (CHECKPOINT) entry {position}: "
                    f"malformed ({exc!r})"
                )
                continue
            result.live[key] = entry
        result.checkpoint_used = True
        return
    key = (record.domain, record.destination, record.message_id)
    if record.kind is RecordKind.PUBLISH:
        result.live[key] = LiveEntry(
            domain=record.domain,
            destination=record.destination,
            message_fields=dict(record.payload["msg"]),
            owed=[str(s) for s in record.payload.get("owed", [])],
            lsn=lsn,
        )
        return
    entry = result.live.get(key)
    if entry is None:
        result.unmatched += 1
        return
    if record.kind is RecordKind.DELIVER:
        entry.delivers += 1
        if entry.domain == "topic":
            consumer = str(record.payload.get("consumer"))
            try:
                entry.owed.remove(consumer)
            except ValueError:
                pass
            if not entry.owed:
                # Topic delivery is terminal: no ack cycle follows.
                del result.live[key]
                result.terminal["topic_delivered"] = (
                    result.terminal.get("topic_delivered", 0) + 1
                )
    elif record.kind is RecordKind.ACK:
        reason = str(record.payload.get("reason", "acked"))
        del result.live[key]
        result.terminal[reason] = result.terminal.get(reason, 0) + 1
    elif record.kind is RecordKind.EXPIRE:
        del result.live[key]
        result.terminal["expired"] = result.terminal.get("expired", 0) + 1


def collect_live_entries(broker: "Broker") -> List[Dict[str, Any]]:
    """Snapshot a running broker's live persistent state for a checkpoint.

    Walks queue backlogs, consumer inboxes/unacked deliveries and durable
    topic retention; the result feeds :meth:`Journal.checkpoint` and has
    the exact shape :func:`fold_records` rebuilds from a CHECKPOINT
    record.
    """
    entries: Dict[Tuple[str, str, int], LiveEntry] = {}
    order = 0
    for queue in broker.queues:
        for message, _redelivered in list(queue._backlog):
            entries[("queue", queue.name, message.message_id)] = LiveEntry(
                domain="queue",
                destination=queue.name,
                message_fields=encode_message(message),
                delivers=queue._redeliveries.get(message.message_id, 0),
                lsn=order,
            )
            order += 1
        for consumer in queue.consumers:
            pending = list(consumer.unacked.values()) + list(consumer.inbox)
            for delivery in pending:
                message = delivery.message
                entries[("queue", queue.name, message.message_id)] = LiveEntry(
                    domain="queue",
                    destination=queue.name,
                    message_fields=encode_message(message),
                    delivers=max(
                        1, queue._redeliveries.get(message.message_id, 0) + 1
                    ),
                    lsn=order,
                )
                order += 1
    for topic in broker.topics:
        for subscription in broker.subscriptions(topic.name):
            if not subscription.durable:
                continue
            for message in subscription.retained:
                key = ("topic", topic.name, message.message_id)
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = LiveEntry(
                        domain="topic",
                        destination=topic.name,
                        message_fields=encode_message(message),
                        lsn=order,
                    )
                    order += 1
                entry.owed.append(
                    durable_key(subscription.subscriber.subscriber_id, topic.name)
                )
    ordered = sorted(entries.values(), key=lambda e: e.lsn)
    return [entry.to_payload() for entry in ordered]


# ----------------------------------------------------------------------
# Apply phase
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """Structured account of one journal recovery.

    Nothing in recovery raises: malformed bytes become quarantine/torn
    entries, impossible applications become ``errors`` strings, and the
    caller inspects this report instead of catching exceptions.
    """

    segments_scanned: int = 0
    bytes_scanned: int = 0
    records_replayed: int = 0
    records_by_kind: Dict[str, int] = field(default_factory=dict)
    torn_tail: Optional[TornTail] = None
    quarantined: List[QuarantinedRange] = field(default_factory=list)
    checkpoint_used: bool = False
    unmatched_records: int = 0
    #: Queue-domain outcomes.
    requeued: int = 0
    redelivered_flagged: int = 0
    expired_during_downtime: int = 0
    dead_lettered_on_recovery: int = 0
    #: Messages shed by a bounded queue's drop policy while restoring
    #: (recovery honours ``capacity`` like any other enqueue path).
    dropped_on_recovery: int = 0
    #: Terminal fates decided *during* recovery (downtime expiry,
    #: dead-letter on exhausted budget) that were written back to the
    #: journal so replaying the log converges instead of re-deciding the
    #: same fate after every subsequent crash.
    terminal_fates_journaled: int = 0
    #: Topic-domain outcomes.
    retained_restored: int = 0
    orphaned: int = 0
    #: A resumed tail segment whose header was torn; ``Journal._open``
    #: repaired it before the first append (see ``Journal.tail_repaired``).
    tail_repaired: Optional[str] = None
    #: Fold/apply-phase problems (malformed payloads, unknown
    #: destinations etc.) — reported, not raised.
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no repair (truncation/quarantine/tail) was needed."""
        return (
            self.torn_tail is None
            and not self.quarantined
            and self.tail_repaired is None
            and not self.errors
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "segments_scanned": self.segments_scanned,
            "bytes_scanned": self.bytes_scanned,
            "records_replayed": self.records_replayed,
            "records_by_kind": dict(self.records_by_kind),
            "torn_tail": (
                {
                    "segment": self.torn_tail.segment,
                    "offset": self.torn_tail.offset,
                    "bytes_discarded": self.torn_tail.bytes_discarded,
                }
                if self.torn_tail
                else None
            ),
            "quarantined": [
                {
                    "segment": q.segment,
                    "start": q.start,
                    "end": q.end,
                    "reason": q.reason,
                }
                for q in self.quarantined
            ],
            "checkpoint_used": self.checkpoint_used,
            "unmatched_records": self.unmatched_records,
            "requeued": self.requeued,
            "redelivered_flagged": self.redelivered_flagged,
            "expired_during_downtime": self.expired_during_downtime,
            "dead_lettered_on_recovery": self.dead_lettered_on_recovery,
            "dropped_on_recovery": self.dropped_on_recovery,
            "terminal_fates_journaled": self.terminal_fates_journaled,
            "retained_restored": self.retained_restored,
            "orphaned": self.orphaned,
            "tail_repaired": self.tail_repaired,
            "errors": list(self.errors),
            "clean": self.clean,
        }


def recover_broker(
    broker: "Broker", journal: Journal, now: float = 0.0
) -> RecoveryReport:
    """Replay ``journal`` into ``broker``; returns the recovery report.

    Safe to call on a freshly-constructed broker (queues are created on
    demand) or on the same broker object after :meth:`Broker.crash`
    (restore never double-counts ``enqueued``).  Replaying the same log
    onto two fresh brokers yields identical broker state; additionally,
    terminal fates *decided during* recovery (TTL elapsed over the
    downtime, redelivery budget already exhausted) are journalled back so
    the log converges — a later crash/recover cycle over the same
    journal sees those messages as terminal instead of re-expiring or
    re-dead-lettering them (which would double-count counters and
    duplicate dead-letter entries on a long-lived broker).
    """
    report = RecoveryReport()
    report.tail_repaired = journal.tail_repaired
    scan = scan_disk(journal.disk, journal.name)
    report.segments_scanned = scan.segments_scanned
    report.bytes_scanned = scan.bytes_scanned
    report.torn_tail = scan.torn_tail
    report.quarantined = scan.quarantined
    report.records_replayed = len(scan.records)

    fold = fold_records(scan.records)
    report.records_by_kind = fold.records_by_kind
    report.checkpoint_used = fold.checkpoint_used
    report.unmatched_records = fold.unmatched
    report.errors.extend(f"fold: {problem}" for problem in fold.malformed)

    # Map durable subscriptions by their restart-stable key for topic
    # re-retention (in-memory subscription ids do not survive a restart).
    subscriptions_by_key = {}
    for topic in broker.topics:
        for subscription in broker.subscriptions(topic.name):
            if subscription.durable:
                key = durable_key(subscription.subscriber.subscriber_id, topic.name)
                subscriptions_by_key[key] = subscription

    for entry in fold.ordered_live():
        try:
            message = decode_message(entry.message_fields)
        except (KeyError, ValueError, TypeError) as exc:
            report.errors.append(
                f"{entry.domain} {entry.destination!r} message "
                f"{entry.message_fields.get('mid')}: undecodable ({exc})"
            )
            continue
        if entry.domain == "queue":
            try:
                queue = broker.queues.create(entry.destination)
                ledger = queue.ledger
                drops_before = (
                    ledger.dropped_new + ledger.dropped_oldest + ledger.deadline_shed
                )
                fate = queue.restore(message, delivers=entry.delivers, now=now)
            except Exception as exc:  # never raise out of recovery
                report.errors.append(
                    f"queue {entry.destination!r} message "
                    f"{message.message_id}: restore failed ({exc})"
                )
                continue
            report.dropped_on_recovery += (
                ledger.dropped_new + ledger.dropped_oldest + ledger.deadline_shed
            ) - drops_before
            if fate == "expired":
                report.expired_during_downtime += 1
                if queue.journal is not None:
                    report.terminal_fates_journaled += 1
            elif fate == "dead_letter":
                report.dead_lettered_on_recovery += 1
                if queue.journal is not None:
                    report.terminal_fates_journaled += 1
            else:
                report.requeued += 1
                if message.redelivered:
                    report.redelivered_flagged += 1
        else:  # topic
            if message.expired(now):
                report.expired_during_downtime += 1
                broker.stats.record("expired")
                # Converge the log: without this EXPIRE the PUBLISH stays
                # live and every later recovery re-expires the message.
                try:
                    journal.log_expire(
                        "topic", entry.destination, message.message_id, now=now
                    )
                    report.terminal_fates_journaled += 1
                except JournalError:
                    broker.record_journal_write_failure()
                continue
            if not entry.owed:
                report.errors.append(
                    f"topic {entry.destination!r} message {message.message_id}: "
                    "live entry with no owed subscriptions"
                )
                continue
            for owed_key in entry.owed:
                subscription = subscriptions_by_key.get(owed_key)
                if subscription is None or not subscription.durable:
                    report.orphaned += 1
                    continue
                if any(
                    m.message_id == message.message_id for m in subscription.retained
                ):
                    continue  # already retained in-memory (same-process recover)
                subscription.retain(message)
                report.retained_restored += 1
    return report
