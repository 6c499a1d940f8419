"""Hypothesis soak: arbitrary publish/ack/crash/recover interleavings.

Each example drives a journal-backed broker through a generated op
sequence; a ``crash`` op discards all in-memory state and replays the
journal.  Conservation (every accepted message has exactly one fate) is
asserted after every operation via the shared ``assert_conserved``
fixture from ``tests/conftest.py``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker import Broker
from repro.broker.message import DeliveryMode, Message
from repro.broker.queues import QueueConsumer
from repro.durability import Journal, SimulatedDisk, SyncPolicy
from repro.rng import RandomStreams

OPS = ("send", "send_ttl", "send_volatile", "receive_ack", "receive", "churn", "crash")


@st.composite
def op_sequences(draw):
    return draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=40))


def build(seed):
    journal = Journal(
        SimulatedDisk(RandomStreams(seed)),
        sync=SyncPolicy.always(),
        segment_bytes=1024,
    )
    broker = Broker(journal=journal)
    queue = broker.queues.create("q", max_redeliveries=2)
    consumer = QueueConsumer("c")
    queue.attach(consumer)
    return broker, queue, consumer


@given(ops=op_sequences(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_conservation_survives_any_crash_interleaving(assert_conserved, ops, seed):
    broker, queue, consumer = build(seed)
    now = 0.0
    for op in ops:
        now += 0.25
        if op == "send":
            queue.send(Message(topic="q"), now=now)
        elif op == "send_ttl":
            queue.send(Message(topic="q", expiration=now + 0.6), now=now)
        elif op == "send_volatile":
            queue.send(
                Message(topic="q", delivery_mode=DeliveryMode.NON_PERSISTENT), now=now
            )
        elif op == "receive_ack":
            delivery = consumer.receive()
            if delivery is not None:
                consumer.ack(delivery)
        elif op == "receive":
            consumer.receive()  # taken, never acked
        elif op == "churn":
            queue.detach(consumer, now=now)
            queue.attach(consumer, now=now)
        elif op == "crash":
            broker.crash(now=now)
            broker.recover(reconnect_subscribers=False, now=now)
            assert broker.last_recovery.errors == []
            queue.attach(consumer, now=now)  # the consumer reconnects
        assert_conserved(queue, consumers=[consumer], context=op)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_sync_never_may_lose_unsynced_commits(assert_conserved, seed):
    """The control: without fsync, a crash tears unsynced records away.

    Whatever survives, recovery still balances its own ledger — loss
    under ``sync=never`` means *fewer* restored messages, never an
    inconsistent state.
    """
    journal = Journal(
        SimulatedDisk(RandomStreams(seed)),
        sync=SyncPolicy.never(),
        segment_bytes=4096,
    )
    broker = Broker(journal=journal)
    queue = broker.queues.create("q")
    for i in range(10):
        queue.send(Message(topic="q", properties={"n": i}), now=0.0)
    journal.disk.crash()  # power loss: the unsynced tail tears
    broker.crash(now=0.5)
    broker.recover(reconnect_subscribers=False, now=1.0)
    report = broker.last_recovery
    assert report.errors == []
    assert queue.depth == report.requeued <= 10
    assert_conserved(queue)
