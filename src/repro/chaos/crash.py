"""Torn-write chaos harness: prove recovery correct at every crash point.

In the ALICE tradition, the harness runs a reference workload against a
journalled broker, then *re-crashes the resulting disk image at every
interesting byte offset* and recovers each image into a fresh broker:

- **record boundaries** — one crash point after every journal record
  (the states ``fsync`` can actually leave behind under ``sync=always``);
- **intra-record offsets** — sampled byte positions *inside* records,
  the torn-write states a power loss mid-append produces;
- **segment-header offsets** — every byte position inside every
  segment's 10-byte header, the states a power loss between rotation
  and the first post-rotation sync produces (a headerless tail must be
  repaired, never resumed: appending to it would commit records the
  next scan discards wholesale).

For each crash point it checks the recovered state against an
independent oracle (a straightforward fold over the committed record
prefix, deliberately separate from :mod:`repro.durability.recovery`'s
replay logic) and asserts the three durability invariants:

1. **no acked message is redelivered** — anything the oracle saw
   acked/dead-lettered/dropped is absent from the recovered backlog;
2. **no committed message is lost** — every live committed message is
   recovered exactly once (requeued, dead-lettered by budget, or expired
   because its TTL elapsed during the downtime — never silently gone);
3. **conservation** — restored = requeued + expired + dead-lettered, and
   the oracle's own ledger balances against the prefix's publishes.

On the queue backlog, 1 and 2 are the kernel's survivor oracle: the
requeued fates are live, the terminal ids gone.

Intra-record points must additionally be *repaired*: recovery reports a
torn tail, truncates it, and lands in the state of the last complete
record — committing a suffix of a torn record would fabricate data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..broker.message import DeliveryMode, Message
from ..broker.queues import QueueConsumer
from ..broker.server import Broker
from ..durability.disk import SimulatedDisk
from ..durability.journal import (
    SEGMENT_HEADER_SIZE,
    Journal,
    JournalRecord,
    RecordKind,
    RecordLocation,
    SyncPolicy,
    durable_key,
)
from ..durability.recovery import _try_parse
from ..rng import RandomStreams
from .kernel import ChaosPoint, ChaosReport, survivor_violations

__all__ = ["run_crash_consistency_harness"]

_TOPIC = "audit"
_QUEUE = "orders"
_DURABLE_SUBSCRIBER = "durable-1"
_MAX_REDELIVERIES = 2


# ----------------------------------------------------------------------
# Reference workload
# ----------------------------------------------------------------------
def _run_workload(
    seed: int, messages: int, segment_bytes: int
) -> Tuple[Dict[str, bytes], List[RecordLocation], str, float]:
    """Drive the reference workload; returns the final disk image, the
    record locations, the journal name and the workload end time."""
    rng = RandomStreams(seed).stream("harness-workload")
    disk = SimulatedDisk(RandomStreams(seed + 1))
    journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=segment_bytes)
    broker = Broker(topics=[_TOPIC], journal=journal)
    subscriber = broker.add_subscriber(_DURABLE_SUBSCRIBER)
    broker.subscribe(subscriber, _TOPIC, durable=True)
    broker.disconnect(subscriber)  # every topic publish is retained (owed)
    queue = broker.queues.create(_QUEUE, max_redeliveries=_MAX_REDELIVERIES)
    consumer = QueueConsumer("worker-1")
    queue.attach(consumer)
    end = messages * 0.01
    for i in range(messages):
        now = i * 0.01
        roll = float(rng.random())
        if roll < 0.45:  # persistent queue send, sometimes with a TTL
            ttl_roll = float(rng.random())
            expiration: Optional[float] = None
            if ttl_roll < 0.15:
                expiration = now + 0.02  # expires during the workload
            elif ttl_roll < 0.30:
                expiration = end + 1.0  # expires during the downtime
            queue.send(
                Message(topic=_QUEUE, properties={"n": i}, expiration=expiration),
                now=now,
            )
        elif roll < 0.55:  # non-persistent send: never journalled, lost on crash
            queue.send(
                Message(
                    topic=_QUEUE,
                    properties={"n": i},
                    delivery_mode=DeliveryMode.NON_PERSISTENT,
                ),
                now=now,
            )
        elif roll < 0.75:  # receive + ack (terminal)
            delivery = consumer.receive()
            if delivery is not None:
                consumer.ack(delivery)
        elif roll < 0.85:  # receive without ack (in-flight at crash)
            consumer.receive()
        elif roll < 0.92:  # detach/reattach: forces redelivery, may dead-letter
            if consumer.attached:
                queue.detach(consumer, now=now)
                queue.attach(consumer, now=now)
        else:  # persistent topic publish to the offline durable subscriber
            broker.publish(Message(topic=_TOPIC, properties={"n": i}), now=now)
    return disk.snapshot(), list(journal.record_locations), journal.name, end


def _decode_records(
    image: Dict[str, bytes], locations: List[RecordLocation]
) -> List[JournalRecord]:
    records = []
    for location in locations:
        parsed = _try_parse(image[location.segment], location.offset)
        if parsed is None:
            raise AssertionError(
                f"workload produced an unparsable record at "
                f"{location.segment}:{location.offset}"
            )
        records.append(parsed[0])
    return records


# ----------------------------------------------------------------------
# Oracle: an independent fold over a committed record prefix
# ----------------------------------------------------------------------
@dataclass
class _Oracle:
    """Ground-truth state after a committed prefix of the journal."""

    queue_live: Dict[int, Tuple[Dict[str, Any], int]] = field(default_factory=dict)
    queue_terminal: Dict[int, str] = field(default_factory=dict)
    queue_publishes: int = 0
    topic_live: Dict[int, Set[str]] = field(default_factory=dict)
    topic_publishes: int = 0


def _oracle_fold(records: List[JournalRecord]) -> _Oracle:
    oracle = _Oracle()
    for record in records:
        mid = record.message_id
        if record.kind is RecordKind.PUBLISH:
            if record.domain == "queue":
                oracle.queue_publishes += 1
                oracle.queue_live[mid] = (dict(record.payload["msg"]), 0)
            else:
                oracle.topic_publishes += 1
                oracle.topic_live[mid] = {
                    str(s) for s in record.payload.get("owed", [])
                }
        elif record.kind is RecordKind.DELIVER:
            if record.domain == "queue" and mid in oracle.queue_live:
                fields, delivers = oracle.queue_live[mid]
                oracle.queue_live[mid] = (fields, delivers + 1)
            elif record.domain == "topic" and mid in oracle.topic_live:
                oracle.topic_live[mid].discard(str(record.payload.get("consumer")))
                if not oracle.topic_live[mid]:
                    del oracle.topic_live[mid]
        elif record.kind is RecordKind.ACK:
            if oracle.queue_live.pop(mid, None) is not None:
                oracle.queue_terminal[mid] = str(record.payload.get("reason", "acked"))
        elif record.kind is RecordKind.EXPIRE:
            if oracle.queue_live.pop(mid, None) is not None:
                oracle.queue_terminal[mid] = "expired"
        elif record.kind is RecordKind.CHECKPOINT:  # pragma: no cover
            raise AssertionError("reference workload never checkpoints")
    return oracle


def _expected_fates(
    oracle: _Oracle, recovery_now: float
) -> Dict[str, Set[int]]:
    """Queue message fates recovery must produce at ``recovery_now``."""
    requeued: Set[int] = set()
    flagged: Set[int] = set()
    expired: Set[int] = set()
    dead: Set[int] = set()
    for mid, (fields, delivers) in oracle.queue_live.items():
        expiration = fields.get("exp")
        if expiration is not None and recovery_now >= expiration:
            expired.add(mid)
        elif delivers > _MAX_REDELIVERIES:
            dead.add(mid)
        else:
            requeued.add(mid)
            if delivers > 0:
                flagged.add(mid)
    return {"requeued": requeued, "flagged": flagged, "expired": expired, "dead": dead}


# ----------------------------------------------------------------------
# Crash images and verification
# ----------------------------------------------------------------------
def _crash_image(
    snapshot: Dict[str, bytes],
    locations: List[RecordLocation],
    committed: int,
    intra_extra: int = 0,
) -> Tuple[Dict[str, bytes], str, int]:
    """Disk image as of the crash point; returns (image, segment, cut).

    ``committed`` records survive whole.  With ``intra_extra > 0`` the
    next record additionally survives *partially* — its first
    ``intra_extra`` bytes, a torn write.
    """
    segments = sorted(snapshot)
    if intra_extra > 0:
        torn = locations[committed]
        cut_segment, cut = torn.segment, torn.offset + intra_extra
    elif committed == 0:
        cut_segment, cut = segments[0], SEGMENT_HEADER_SIZE
    else:
        last = locations[committed - 1]
        cut_segment, cut = last.segment, last.end
    image: Dict[str, bytes] = {}
    for segment in segments:
        if segment < cut_segment:
            image[segment] = snapshot[segment]
        elif segment == cut_segment:
            image[segment] = snapshot[segment][:cut]
    return image, cut_segment, cut


def _recover_image(
    image: Dict[str, bytes], seed: int, recovery_now: float, segment_bytes: int
) -> Broker:
    """A fresh broker (new process, same configuration) over the image."""
    disk = SimulatedDisk.from_snapshot(image, RandomStreams(seed + 2))
    journal = Journal(disk, sync=SyncPolicy.always(), segment_bytes=segment_bytes)
    broker = Broker(topics=[_TOPIC], journal=journal)
    subscriber = broker.add_subscriber(_DURABLE_SUBSCRIBER)
    broker.subscribe(subscriber, _TOPIC, durable=True)
    broker.disconnect(subscriber)
    broker.queues.create(_QUEUE, max_redeliveries=_MAX_REDELIVERIES)
    broker.recover(reconnect_subscribers=False, now=recovery_now)
    return broker


def _verify_point(
    broker: Broker,
    oracle: _Oracle,
    recovery_now: float,
    mode: str,
) -> List[str]:
    violations: List[str] = []
    report = broker.last_recovery
    assert report is not None
    queue = broker.queues.get(_QUEUE)
    expected = _expected_fates(oracle, recovery_now)

    if report.errors:
        violations.append(f"recovery errors: {report.errors}")
    if mode == "intra" and report.torn_tail is None:
        violations.append("intra-record crash not reported as a torn tail")
    if mode == "boundary" and not report.clean:
        violations.append(
            "boundary crash needed repair: "
            f"torn={report.torn_tail} quarantined={report.quarantined} "
            f"tail_repaired={report.tail_repaired}"
        )
    # ``header`` cuts assert no particular repair shape: a 0-byte tail is
    # recreated silently by ``Journal._open``; a partial header is left
    # for the scan to quarantine.  The state invariants below are the
    # contract either way.

    backlog = [message for message, _ in queue._backlog]
    violations.extend(
        survivor_violations(
            (m.message_id for m in backlog), expected["requeued"], set(oracle.queue_terminal)
        )
    )
    redelivered = {m.message_id for m in backlog if m.redelivered}
    if redelivered != expected["flagged"]:
        violations.append(
            f"redelivered flags wrong: got {sorted(redelivered)}, "
            f"want {sorted(expected['flagged'])}"
        )
    dead_ids = {m.message_id for m in queue.dead_letters}
    if dead_ids != expected["dead"]:
        violations.append(
            f"dead-letter mismatch: got {sorted(dead_ids)}, want {sorted(expected['dead'])}"
        )
    if report.expired_during_downtime != len(expected["expired"]):
        violations.append(
            f"downtime expiry mismatch: report {report.expired_during_downtime}, "
            f"want {len(expected['expired'])}"
        )
    # Conservation: every restored message has exactly one fate (the
    # product ledger, with the dead-letter and expiry counts pinned to the
    # oracle above), and the oracle's ledger balances against the
    # committed publishes.
    if queue.ledger.restored != len(oracle.queue_live):
        violations.append(
            f"restored {queue.ledger.restored} != live committed {len(oracle.queue_live)}"
        )
    violations.extend(broker.queues.imbalances())
    if oracle.queue_publishes != len(oracle.queue_live) + len(oracle.queue_terminal):
        violations.append("oracle ledger does not balance (harness bug)")

    # Topic invariant: exactly the owed copies are re-retained.
    for subscription in broker.subscriptions(_TOPIC):
        ids = [m.message_id for m in subscription.retained]
        if len(ids) != len(set(ids)):
            violations.append(f"duplicate topic retention: {sorted(ids)}")
        key = durable_key(subscription.subscriber.subscriber_id, _TOPIC)
        owed_here = {m for m, owed in oracle.topic_live.items() if key in owed}
        if set(ids) != owed_here:
            violations.append(
                f"topic retention mismatch for {key}: got {sorted(ids)}, "
                f"want {sorted(owed_here)}"
            )
    return violations


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_crash_consistency_harness(
    seed: int = 0,
    messages: int = 60,
    intra_samples: int = 200,
    segment_bytes: int = 1536,
    downtime: float = 10.0,
) -> ChaosReport:
    """Crash-test recovery at every record boundary + sampled torn writes.

    ``messages`` workload operations produce some number of journal
    records; the harness then recovers ``records + 1`` boundary images,
    ``intra_samples`` torn images and every cut inside every segment
    header (``segments × SEGMENT_HEADER_SIZE`` images), verifying each
    against the oracle.  A report with ``ok=False`` carries
    human-readable violations — ``repro bench durability`` and the test
    suite both fail on any.
    """
    if messages < 1:
        raise ValueError(f"messages must be >= 1, got {messages}")
    if intra_samples < 0:
        raise ValueError(f"intra_samples must be >= 0, got {intra_samples}")
    snapshot, locations, _name, end = _run_workload(seed, messages, segment_bytes)
    records = _decode_records(snapshot, locations)
    recovery_now = end + downtime
    report = ChaosReport(
        {"seed": seed, "messages": messages, "records": len(records), "segments": len(snapshot)}
    )

    def check(kind: str, image: Dict[str, bytes], segment: str, cut: int, committed: int) -> None:
        broker = _recover_image(image, seed, recovery_now, segment_bytes)
        oracle = _oracle_fold(records[:committed])
        report.points.append(
            ChaosPoint(
                {"kind": kind, "segment": segment, "cut": cut, "committed": committed},
                _verify_point(broker, oracle, recovery_now, mode=kind),
            )
        )

    for committed in range(len(records) + 1):
        image, segment, cut = _crash_image(snapshot, locations, committed)
        check("boundary", image, segment, cut, committed)

    rng = RandomStreams(seed).stream("harness-intra")
    sampled = 0
    while sampled < intra_samples:
        index = int(rng.integers(0, len(locations)))
        location = locations[index]
        if location.length < 2:  # pragma: no cover - records are never this small
            continue
        extra = int(rng.integers(1, location.length))
        image, segment, cut = _crash_image(
            snapshot, locations, committed=index, intra_extra=extra
        )
        check("intra", image, segment, cut, index)
        sampled += 1

    # Header cuts: a crash between segment rotation and the first
    # post-rotation sync can leave the newest segment with anywhere from
    # 0 to 9 of its 10 header bytes.  Every earlier segment is complete;
    # the committed history is exactly the records they hold.
    segment_names = sorted(snapshot)
    for segment in segment_names:
        committed = sum(1 for loc in locations if loc.segment < segment)
        for cut in range(SEGMENT_HEADER_SIZE):
            image = {s: snapshot[s] for s in segment_names if s < segment}
            image[segment] = snapshot[segment][:cut]
            check("header", image, segment, cut, committed)

    kinds = Counter(point.coords["kind"] for point in report.points)
    for kind in ("boundary", "intra", "header"):
        report.params[f"{kind}_points"] = kinds[kind]
    return report
