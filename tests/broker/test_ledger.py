"""The conservation ledger: fate table, single mutation point, equation."""

import pytest

from repro.broker import BrokerStats, Message, PointToPointQueue, QueueConsumer
from repro.broker.ledger import ACCEPTED, FATE_TABLE, INFORMATIONAL, TERMINAL, Ledger


class TestFateTable:
    def test_roles_match_the_independent_pin(self):
        """The reference copy of the role table: editing a role in
        ``ledger.py`` has to be repeated here, in review."""
        assert ACCEPTED == ("enqueued", "restored", "transferred_in")
        assert TERMINAL == (
            "acked",
            "expired_at_drain",
            "expired_in_flight",
            "dead_lettered",
            "dropped_new",
            "dropped_oldest",
            "deadline_shed",
            "lost_on_crash",
            "discarded_on_crash",
            "transferred_out",
            "dropped_on_handoff",
        )
        assert INFORMATIONAL == (
            "expired",
            "delivered",
            "redelivered",
            "journal_write_failures",
        )

    def test_rows_are_unique_documented_and_mirror_real_totals(self):
        names = [fate.name for fate in FATE_TABLE]
        assert len(names) == len(set(names)) == len(ACCEPTED + TERMINAL + INFORMATIONAL)
        totals = BrokerStats().snapshot()
        for fate in FATE_TABLE:
            assert fate.why
            assert fate.mirror is None or fate.mirror in totals
            if fate.subset_of is not None:
                assert fate.subset_of in INFORMATIONAL
        renames = {f.name: f.mirror for f in FATE_TABLE if f.mirror not in (None, f.name)}
        assert renames == {"expired_at_drain": "expired_on_drain"}

    def test_every_row_reads_through_the_queue(self):
        queue = PointToPointQueue("q")
        for fate in FATE_TABLE:
            assert getattr(queue, fate.name) == 0
            assert getattr(PointToPointQueue, fate.name).__doc__ == fate.why


class TestSingleMutationPoint:
    def test_undeclared_counter_raises(self):
        ledger = Ledger()
        with pytest.raises(KeyError):
            ledger.record("no_such_counter")
        with pytest.raises(KeyError):
            ledger.record("depth")  # a gauge, not a counter

    def test_counters_cannot_be_created_by_assignment(self):
        ledger = Ledger()
        with pytest.raises(AttributeError):
            ledger.bogus = 1  # slots: the table is the whole attribute set
        with pytest.raises(AttributeError):
            ledger.no_such_counter
        queue = PointToPointQueue("q")
        with pytest.raises(AttributeError):
            queue.acked += 1  # the queue's views are read-only
        assert queue.acked == 0

    def test_mirrored_rows_book_the_broker_wide_totals(self):
        stats = BrokerStats()
        ledger = Ledger(stats)
        for fate in FATE_TABLE:
            ledger.record(fate.name, 2)
        for fate in FATE_TABLE:
            if fate.mirror is not None:
                assert getattr(stats, fate.mirror) == 2, fate.name
        # the informational TTL total: its own 2 plus its three subsets
        assert ledger.expired == 8
        mirrored = {fate.mirror for fate in FATE_TABLE if fate.mirror}
        untouched = {k: v for k, v in stats.snapshot().items() if k not in mirrored}
        assert untouched == {
            k: v for k, v in BrokerStats().snapshot().items() if k not in mirrored
        }

    def test_broker_stats_record_rejects_unknown_totals(self):
        stats = BrokerStats()
        stats.record("crashes")
        assert stats.crashes == 1
        with pytest.raises(AttributeError):
            stats.record("no_such_total")


class TestEquation:
    def test_conserved_is_a_property_not_a_method(self):
        assert isinstance(Ledger.conserved, property)
        assert Ledger().conserved is True

    def test_addition_sums_every_counter_and_both_gauges(self):
        a, b = Ledger(), Ledger()
        for i, fate in enumerate(FATE_TABLE):
            a.record(fate.name, i + 1)
            b.record(fate.name, 100)
        a, b = a.closed(depth=3, in_flight=4), b.closed(depth=10, in_flight=20)
        total = a + b
        for fate in FATE_TABLE:
            assert getattr(total, fate.name) == getattr(a, fate.name) + getattr(b, fate.name)
        assert (total.depth, total.in_flight) == (13, 24)
        assert total == b + a and total != a
        assert a + Ledger() == a

    def test_queue_closes_its_ledger_with_depth_and_in_flight(self):
        queue = PointToPointQueue("q")
        consumer = QueueConsumer("c")
        queue.attach(consumer)
        for _ in range(3):
            queue.send(Message(topic="q"))
        consumer.ack(consumer.receive())
        consumer.receive()  # unacked; the third stays in the inbox
        queue.detach(consumer)  # both return to the backlog
        queue.attach(consumer)
        consumer.receive()
        assert queue.ledger.depth == queue.ledger.in_flight == 0  # open
        closed = queue.closed_ledger()
        assert (closed.enqueued, closed.acked) == (3, 1)
        assert (closed.depth, closed.in_flight) == (queue.depth, 2) == (0, 2)
        assert closed.conserved
        closed.assert_conserved("balanced")

    def test_imbalance_raises_with_the_per_leg_dump(self):
        ledger = Ledger()
        ledger.record("enqueued", 5)
        ledger.record("acked", 2)
        broken = ledger.closed(depth=1, in_flight=1)
        assert not broken.conserved
        with pytest.raises(AssertionError) as raised:
            broken.assert_conserved("after crash")
        text = str(raised.value)
        assert "[after crash]" in text and "accepted 5 != " in text
        for leg in ("enqueued=5", "acked=2", "depth=1", "in_flight=1", "dead_lettered=0"):
            assert leg in text


class TestSnapshot:
    def test_keys_are_pinned(self):
        """HEAD's keys minus the seven client-posture mirrors."""
        assert set(BrokerStats().snapshot()) == {
            "received",
            "dispatched",
            "overall",
            "filters_evaluated",
            "expired",
            "dropped_offline",
            "retained",
            "crashes",
            "lost_on_crash",
            "redelivered",
            "dead_lettered",
            "dropped_by_fault",
            "expired_on_drain",
            "dropped_new",
            "dropped_oldest",
            "deadline_shed",
            "admission_rejected",
            "inbox_dropped",
            "expired_in_flight",
            "hedge_duplicates",
            "batch_hits",
            "batch_messages",
            "health",
            "health_transitions",
            "mean_replication_grade",
        }

    def test_observe_health_is_one_transition(self):
        stats = BrokerStats()
        stats.observe_health("shedding")
        snap = stats.snapshot()
        assert (snap["health"], snap["health_transitions"]) == ("shedding", 1)
