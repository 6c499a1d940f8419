"""The simulated server's books: the ingress fate table, the single
mutation point, and the one identity that holds in every posture at
every instant — checked on a composed run no single experiment makes."""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.broker import BrokerStats
from repro.broker.message import DeliveryMode
from repro.broker.ledger import by_role
from repro.broker.queues import DropPolicy
from repro.core.params import FilterType, costs_for
from repro.core.replication import DeterministicReplication
from repro.core.service_time import ServiceTimeModel
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.overload import OverloadConfig
from repro.simulation import CpuCostModel, Engine, MeasurementWindow
from repro.testbed.scenario import build_filter_scenario
from repro.testbed.simserver import INGRESS_FATES, IngressLedger, SimulatedJMSServer


class TestIngressFateTable:
    def test_roles_and_mirrors_match_the_independent_pin(self):
        """The reference copy: editing a role or a mirror in
        ``simserver.py`` has to be repeated here, in review."""
        assert IngressLedger.ACCEPTED == ("accepted",)
        assert IngressLedger.TERMINAL == (
            "delivered",
            "expired",
            "lost_on_crash",
            "dropped_new",
            "dropped_oldest",
            "deadline_shed",
            "expired_in_flight",
            "hedge_duplicates",
        )
        assert by_role(INGRESS_FATES)[2] == (
            "completed",
            "admission_rejected",
            "rejected_submits",
            "waiters_shed",
            "client_timeouts",
            "crashes",
            "dropped_by_fault",
            "corrupted",
            "redelivered",
            "served_again",
        )
        assert IngressLedger.GAUGES == ("backlog", "in_service")
        assert {f.name: f.mirror for f in INGRESS_FATES if f.mirror is not None} == {
            "lost_on_crash": "lost_on_crash",
            "dropped_new": "dropped_new",
            "dropped_oldest": "dropped_oldest",
            "deadline_shed": "deadline_shed",
            "expired_in_flight": "expired_in_flight",
            "hedge_duplicates": "hedge_duplicates",
            "admission_rejected": "admission_rejected",
            "dropped_by_fault": "dropped_by_fault",
            "corrupted": "dead_lettered",
            "redelivered": "redelivered",
        }
        assert {f.name: f.subset_of for f in INGRESS_FATES if f.subset_of is not None} == {
            "delivered": "completed",
            "expired": "completed",
        }

    def test_rows_are_unique_documented_and_mirror_real_totals(self):
        names = [fate.name for fate in INGRESS_FATES]
        assert len(names) == len(set(names))
        totals = BrokerStats().snapshot()
        for fate in INGRESS_FATES:
            assert fate.why
            assert fate.mirror is None or fate.mirror in totals

    def test_record_is_the_only_way_in(self):
        ledger = IngressLedger()
        with pytest.raises(KeyError):
            ledger.record("no_such_counter")
        with pytest.raises(KeyError):
            ledger.record("backlog")  # a gauge, not a counter
        with pytest.raises(AttributeError):
            ledger.no_such_counter = 1  # slots: the table is the whole attribute set
        with pytest.raises(AttributeError):
            ledger.enqueued  # the queue table's row is not this table's

    def test_closing_takes_exactly_the_two_gauges(self):
        ledger = IngressLedger()
        ledger.record("accepted", 3)
        ledger.record("delivered", 1)
        assert ledger.completed == 1  # derived: delivered + expired
        closed = ledger.closed(backlog=1, in_service=1)
        assert closed.conserved and not ledger.conserved
        assert repr(closed).startswith("IngressLedger(accepted=3 delivered=1 ")
        with pytest.raises(TypeError):
            ledger.closed(backlog=2)  # a forgotten gauge is the likely bug
        with pytest.raises(TypeError):
            ledger.closed(depth=1, in_flight=1)  # the queue's gauges


#: Ingress posture -> a row only it produces: the paper's push-back
#: (credits, no overload control) has waiters for CLIENT_TIMEOUT to
#: fail, a drop policy sheds into its own row.
POSTURES = {
    None: "client_timeouts",
    DropPolicy.DROP_NEW: "dropped_new",
    DropPolicy.DROP_OLDEST: "dropped_oldest",
    DropPolicy.DEADLINE_SHED: "deadline_shed",
}
ARRIVALS_END, GRID_END, GRID_POINTS = 5.0, 6.0, 240

#: Every server-side fault kind in one script: three crashes (the second
#: inside the process pause), the CLIENT_TIMEOUT inside a slowdown so
#: push-back has waiters to fail.
SCHEDULE = FaultSchedule(
    [
        FaultEvent(time=0.5, kind=FaultKind.SLOW_CONSUMER, duration=0.5, magnitude=4.0),
        FaultEvent(time=0.8, kind=FaultKind.MESSAGE_DROP, magnitude=3.0),
        FaultEvent(time=1.0, kind=FaultKind.MESSAGE_CORRUPT, magnitude=2.0),
        FaultEvent(time=1.5, kind=FaultKind.SERVER_CRASH, duration=0.3),
        FaultEvent(
            time=2.2, kind=FaultKind.SUBSCRIBER_DISCONNECT, duration=0.8, target="match-0"
        ),
        FaultEvent(time=2.5, kind=FaultKind.PROCESS_PAUSE, duration=0.6),
        FaultEvent(time=2.7, kind=FaultKind.SERVER_CRASH, duration=0.2),
        FaultEvent(time=3.2, kind=FaultKind.SLOW_CONSUMER, duration=0.6, magnitude=6.0),
        FaultEvent(time=3.6, kind=FaultKind.CLIENT_TIMEOUT, magnitude=5.0),
        FaultEvent(time=4.2, kind=FaultKind.SERVER_CRASH, duration=0.25),
    ]
)


def _composed_rig(policy, seed):
    """A server with every posture switch on, open-loop traffic at
    ρ ≈ 1.15 (half persistent, 40 % with a 50 ms deadline, 15 % re-using
    an earlier message id) and :data:`SCHEDULE` armed."""
    engine = Engine()
    scenario = build_filter_scenario(
        FilterType.CORRELATION_ID, replication_grade=2, n_additional=2, durable=True
    )
    costs = costs_for(FilterType.CORRELATION_ID).scaled(100.0)
    server = SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=CpuCostModel(costs=costs),
        window=MeasurementWindow(start=0.0, end=GRID_END),
        buffer_capacity=20,
        overload=policy and OverloadConfig(capacity=20, policy=policy, admission_soft=None),
        report_drops=True,
        shed_expired_before_service=True,
        hedge_dedup=True,
    )
    mean_service = ServiceTimeModel(costs, n_fltr=4, replication=DeterministicReplication(2)).mean
    rng = random.Random(seed)
    earlier_ids = []

    def arrive():
        message = scenario.make_message()
        if rng.random() < 0.5:
            message.delivery_mode = DeliveryMode.NON_PERSISTENT
        if rng.random() < 0.4:
            message.expiration = engine.now + 0.05
        if earlier_ids and rng.random() < 0.15:
            message.message_id = rng.choice(earlier_ids[-200:])
        earlier_ids.append(message.message_id)
        server.submit(message)
        if engine.now < ARRIVALS_END:
            engine.call_in(rng.expovariate(1.15 / mean_service), arrive)

    engine.call_in(0.0, arrive)
    FaultInjector(engine=engine, server=server, schedule=SCHEDULE).arm()
    return engine, server


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("policy", POSTURES, ids=lambda p: p.value if p else "push-back")
def test_composed_posture_balances_at_every_instant(policy, seed):
    engine, server = _composed_rig(policy, seed)
    for step in range(1, GRID_POINTS + 1):
        t = GRID_END * step / GRID_POINTS
        engine.run(until=t)
        server.closed_ledger().assert_conserved(f"seed={seed} t={t:g}")
    engine.run()  # drain
    books = server.closed_ledger()
    books.assert_conserved(f"seed={seed} drained")
    assert (books.backlog, books.in_service) == (0, 0)
    # A fate the run never produces would be a finding about this test.
    for row in ("lost_on_crash", "expired_in_flight", "hedge_duplicates", "delivered",
                "redelivered", POSTURES[policy]):
        assert getattr(books, row) > 0, f"{row} never produced ({books!r})"
    assert (books.crashes, books.dropped_by_fault, books.corrupted) == (3, 3, 2)
    assert books.completed == books.delivered + books.expired
    # Each mirrored broker-wide total is its ledger row, nothing else.
    stats = server.broker.stats
    for fate in INGRESS_FATES:
        if fate.mirror is not None:
            assert getattr(stats, fate.mirror) == getattr(books, fate.name), fate.name
    assert stats.crashes == books.crashes  # booked by the broker's own crash()
