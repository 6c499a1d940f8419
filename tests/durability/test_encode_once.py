"""Encode once: the bytes on disk are the canonical encoding of their parse.

Shippers forward the bytes the tailer CRC-verified and the standby appends
the bytes it parsed, instead of each re-serialising a parse.  That is only
sound if ``encode_record(decode(x)) == x`` for every record the journal can
write (sorted keys, fixed separators, ASCII-escaped JSON header, raw bodies
after it) — pinned here as a property rather than assumed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.message import RESERVED_WORDS, DeliveryMode, Message
from repro.durability import (
    Journal,
    JournalRecord,
    JournalTailer,
    RecordKind,
    SimulatedDisk,
    SyncPolicy,
    TailedRecord,
)
from repro.durability.journal import (
    SEGMENT_HEADER_SIZE,
    durable_key,
    encode_message,
    encode_record,
)
from repro.durability.recovery import LiveEntry, _try_parse

NAMES = st.from_regex(r"[a-z_$][a-z0-9_$]{0,8}", fullmatch=True).filter(
    lambda name: name not in RESERVED_WORDS
)
VALUES = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),  # full unicode, lone surrogates excluded by default
)
BODIES = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.binary(max_size=64),
    st.just(bytes(range(256))),  # every byte value, raw on the wire
    st.just(b"\xff\xfe\x80 not utf-8 \xc3"),
    st.just(bytes(range(256)) * 64),  # 16 KiB
    st.binary(max_size=64).map(bytearray),
)
MESSAGES = st.builds(
    Message,
    topic=st.sampled_from(["orders", "prices/€", "q"]),
    correlation_id=st.one_of(st.none(), st.text(max_size=12)),
    properties=st.dictionaries(NAMES, VALUES, max_size=5),
    body=BODIES,
    priority=st.integers(0, 9),
    delivery_mode=st.just(DeliveryMode.PERSISTENT),
    timestamp=st.floats(0, 1e9),
    expiration=st.one_of(st.none(), st.floats(0, 1e9)),
)
OWED = st.lists(
    st.builds(durable_key, st.text(min_size=1, max_size=8), st.just("prices/€")),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    message=MESSAGES,
    owed=OWED,
    consumer=st.one_of(st.integers(0, 2**40), st.text(max_size=8)),
    reason=st.sampled_from(["acked", "dead-lettered", "dropped"]),
)
def test_tailed_bytes_are_the_canonical_encoding_of_their_parse(
    message, owed, consumer, reason
):
    disk = SimulatedDisk()
    journal = Journal(disk, sync=SyncPolicy.never())
    tailer = JournalTailer(disk)
    mid, dest = message.message_id, message.topic
    journal.log_publish("topic", dest, message, owed=owed, now=0.5)
    journal.log_deliver("queue", dest, mid, consumer, now=0.5)
    journal.log_ack("queue", dest, mid, reason=reason, now=0.5)
    journal.log_expire("queue", dest, mid, now=0.5)
    history = disk.read(journal.current_segment, SEGMENT_HEADER_SIZE)
    seen = tailer.poll()
    assert b"".join(record.encoded for record in seen) == history

    entry = LiveEntry(
        domain="topic",
        destination=dest,
        message_fields=encode_message(message),
        delivers=2,
        owed=list(owed),
    )
    journal.checkpoint([entry.to_payload()], now=0.5)
    snapshot = tailer.poll()  # repositioned onto the checkpoint segment
    assert snapshot[0].encoded == disk.read(journal.current_segment, SEGMENT_HEADER_SIZE)
    seen.extend(snapshot)
    assert [record.kind for record in seen] == list(RecordKind)

    for record in seen:
        assert isinstance(record, TailedRecord)
        plain = JournalRecord(record.kind, record.payload)
        assert encode_record(plain) == record.encoded
        assert _try_parse(record.encoded, 0) == (plain, len(record.encoded))


def test_append_encoded_writes_the_bytes_it_is_given():
    source, replica = SimulatedDisk(), SimulatedDisk()
    journal = Journal(source)
    for n in range(5):
        journal.log_publish("queue", "q", Message(topic="q", properties={"n": n}))
    copy = Journal(replica)
    for record in JournalTailer(source).poll():
        copy.append_encoded(record.encoded)
    assert replica.snapshot() == source.snapshot()
    assert copy.records_appended == journal.records_appended
    assert copy.record_locations == journal.record_locations


# ----------------------------------------------------------------------
# The four log_* calls assemble their header; encode_record is the oracle
# ----------------------------------------------------------------------
import enum  # noqa: E402
import json.encoder  # noqa: E402
from unittest import mock  # noqa: E402

import pytest  # noqa: E402

from repro.durability import journal as journal_module  # noqa: E402

QUOTERS = [json.encoder.py_encode_basestring_ascii]
if json.encoder.c_encode_basestring_ascii is not None:
    QUOTERS.append(json.encoder.c_encode_basestring_ascii)


class Worker(enum.IntEnum):
    SEVEN = 7


class Lane(str, enum.Enum):
    FAST = 'fa"st'


#: Quotes, backslashes, control characters, non-ASCII, astral planes and
#: lone surrogates: everything a JSON string has to escape.
HOSTILE_TEXT = st.one_of(
    st.sampled_from(["", "orders", 'a"b', "back\\slash", "\x00\x1f\x7f", "prices/€", "\U0001f4a9", "\ud800"]),
    st.text(alphabet=st.characters(), max_size=12),
)
#: Ids and handles of every type a caller could pass: ``1``, ``"1"`` and
#: ``True`` are three different consumers (and one dict key).
HOSTILE_ATOMS = st.one_of(
    st.sampled_from([1, "1", True, False, None, 1.0, -0.0, 1e22, Worker.SEVEN, Lane.FAST]),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), (1, "a"), [], {"b": 1, "a": None}]),
    st.integers(-(2**70), 2**70),
    st.floats(),
    HOSTILE_TEXT,
)
HOSTILE_MESSAGES = st.builds(
    Message,
    topic=HOSTILE_TEXT.filter(bool),
    correlation_id=st.one_of(
        st.none(), st.text(alphabet=st.characters(exclude_categories=["Cs"]), max_size=12)
    ),
    properties=st.dictionaries(NAMES, st.one_of(VALUES, st.floats()), max_size=4),
    body=BODIES,
    priority=st.one_of(st.integers(0, 9), st.just(True)),
    delivery_mode=st.sampled_from(DeliveryMode),
    timestamp=st.one_of(st.integers(-5, 2**40), st.floats(), st.booleans()),
    expiration=st.one_of(st.none(), st.integers(0, 2**40), st.floats()),
    message_id=HOSTILE_ATOMS,
)


def on_disk(call, *args, **kwargs):
    """The bytes one ``log_*`` call appends to a fresh journal."""
    disk = SimulatedDisk()
    journal = Journal(disk, sync=SyncPolicy.never())
    getattr(journal, call)(*args, **kwargs)
    return disk.read(journal.current_segment, SEGMENT_HEADER_SIZE)


def specified(kind, payload):
    return encode_record(JournalRecord(kind, payload))


@pytest.mark.parametrize("quote", QUOTERS, ids=lambda quote: quote.__module__)
@settings(max_examples=200, deadline=None)
@given(
    message=HOSTILE_MESSAGES,
    owed=st.one_of(OWED, st.lists(HOSTILE_ATOMS, max_size=3).map(tuple)),
    domain=st.one_of(st.sampled_from(["queue", "topic"]), HOSTILE_ATOMS),
    dest=HOSTILE_TEXT,
    mid=HOSTILE_ATOMS,
    consumer=HOSTILE_ATOMS,
    reason=st.one_of(
        st.sampled_from(["acked", "dead_letter", "dropped", "transferred", "expired"]),
        HOSTILE_ATOMS,
    ),
)
def test_each_log_call_lands_the_canonical_encoding_of_its_payload(
    quote, message, owed, domain, dest, mid, consumer, reason
):
    route = {"domain": domain, "dest": dest}
    publish = {**route, "msg": encode_message(message), "mid": message.message_id}
    if owed:
        publish["owed"] = list(owed)
    with mock.patch.object(journal_module, "encode_basestring_ascii", quote):
        assert on_disk("log_publish", domain, dest, message, owed=owed) == specified(
            RecordKind.PUBLISH, publish
        )
        assert on_disk("log_deliver", domain, dest, mid, consumer) == specified(
            RecordKind.DELIVER, {**route, "mid": mid, "consumer": consumer}
        )
        assert on_disk("log_ack", domain, dest, mid, reason=reason) == specified(
            RecordKind.ACK, {**route, "mid": mid, "reason": reason}
        )
        assert on_disk("log_expire", domain, dest, mid) == specified(
            RecordKind.EXPIRE, {**route, "mid": mid}
        )


def test_an_atom_json_cannot_carry_is_refused_before_anything_is_written():
    disk = SimulatedDisk()
    journal = Journal(disk)
    for attempt in (
        lambda: journal.log_deliver("queue", "orders", 1, b"not a consumer"),
        lambda: journal.log_ack("queue", "orders", b"not an id"),
        lambda: journal.log_expire("queue", b"not a name", 1),
        lambda: journal.log_publish("queue", "orders", Message(topic="q"), owed=[b"x"]),
    ):
        with pytest.raises(TypeError, match="not JSON serializable"):
            attempt()
    assert disk.length(journal.current_segment) == SEGMENT_HEADER_SIZE
    assert journal.records_appended == 0


# ----------------------------------------------------------------------
# A journal remembers the route text of exact strings only
# ----------------------------------------------------------------------
class Shout(str):
    """Equal to, and hashed like, the text it holds; not an exact ``str``."""


ROUTE_PARTS = st.one_of(
    st.sampled_from(["queue", "orders", True, 1, 1.0, Shout("queue"), Shout("orders"), Lane.FAST]),
    HOSTILE_ATOMS,
)


def landed(journal, disk):
    return disk.read(journal.current_segment, SEGMENT_HEADER_SIZE)


def test_a_remembered_route_is_never_lent_to_an_equal_atom_of_another_type():
    disk = SimulatedDisk()
    journal = Journal(disk, sync=SyncPolicy.never())
    routes = [("queue", "orders"), (True, "orders"), (1, "orders"), (1.0, "orders")]
    routes += [(Shout("queue"), "orders"), ("queue", True), ("queue", 1), ("queue", 1.0)]
    routes += [("queue", Shout("orders")), ("queue", "orders")]
    expected = []
    for domain, dest in routes:
        journal.log_ack(domain, dest, 7)
        journal.log_expire(domain, dest, 7)
        route = {"domain": domain, "dest": dest, "mid": 7}
        expected.append(specified(RecordKind.ACK, {**route, "reason": "acked"}))
        expected.append(specified(RecordKind.EXPIRE, route))
    assert landed(journal, disk) == b"".join(expected)
    assert list(journal._routes) == [("queue", "orders")]


@settings(max_examples=150, deadline=None)
@given(routes=st.lists(st.tuples(ROUTE_PARTS, ROUTE_PARTS), min_size=1, max_size=6))
def test_a_reused_journal_lands_the_canonical_encoding_of_every_route(routes):
    disk = SimulatedDisk()
    journal = Journal(disk, sync=SyncPolicy.never())
    message = Message(topic="orders", body=b"xy", message_id=5)
    expected = []
    for domain, dest in routes + routes:  # the second pass from the memo
        journal.log_deliver(domain, dest, 5, "worker")
        journal.log_publish(domain, dest, message)
        route = {"domain": domain, "dest": dest, "mid": 5}
        expected.append(specified(RecordKind.DELIVER, {**route, "consumer": "worker"}))
        expected.append(
            specified(RecordKind.PUBLISH, {**route, "msg": encode_message(message)})
        )
    assert landed(journal, disk) == b"".join(expected)
    assert all(type(d) is str and type(t) is str for d, t in journal._routes)


def test_the_route_memo_is_bounded():
    disk = SimulatedDisk()
    journal = Journal(disk, sync=SyncPolicy.never())
    kept = journal_module._ROUTES_KEPT
    for n in range(kept + 3):
        journal.log_expire("queue", f"q{n}", n)
    assert len(journal._routes) == 3
    journal.log_expire("queue", "q0", 0)
    assert landed(journal, disk).endswith(
        specified(RecordKind.EXPIRE, {"domain": "queue", "dest": "q0", "mid": 0})
    )


# ----------------------------------------------------------------------
# One prebuilt encoder, no shared cycle table
# ----------------------------------------------------------------------
def test_a_failed_property_or_owed_encode_leaves_no_trace_for_the_next():
    # A shared ``markers`` table would keep the ids of the containers an
    # encode that raised was inside, and call the next encode of the same
    # objects circular.
    disk = SimulatedDisk()
    journal = Journal(disk, sync=SyncPolicy.never())
    message = Message(topic="orders", properties={"n": 1}, message_id=3)
    message.properties["late"] = [b"not json"]  # mutated after validation
    with pytest.raises(TypeError, match="not JSON serializable"):
        journal.log_publish("queue", "orders", message)
    del message.properties["late"]
    journal.log_publish("queue", "orders", message)

    inner = ["alice|orders", b"not json"]
    with pytest.raises(TypeError, match="not JSON serializable"):
        journal.log_publish("topic", "orders", message, owed=[inner])
    inner[1] = "bob|orders"
    journal.log_publish("topic", "orders", message, owed=[inner])

    route = {"dest": "orders", "msg": encode_message(message), "mid": 3}
    assert landed(journal, disk) == specified(
        RecordKind.PUBLISH, {**route, "domain": "queue"}
    ) + specified(RecordKind.PUBLISH, {**route, "domain": "topic", "owed": [inner]})


def test_a_cycle_is_still_reported_as_one():
    disk = SimulatedDisk()
    journal = Journal(disk)
    entry = {"dest": "orders", "domain": "queue"}
    entry["self"] = entry
    with pytest.raises(ValueError, match="Circular reference detected"):
        journal.checkpoint([entry])
    owed = ["a|t"]
    owed.append(owed)
    with pytest.raises(ValueError, match="Circular reference detected"):
        journal.log_publish("topic", "t", Message(topic="t"), owed=owed)
    assert journal.records_appended == 0
    del entry["self"]
    journal.checkpoint([entry])
    assert journal.records_appended == 1
