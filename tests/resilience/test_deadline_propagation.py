"""Deadline propagation across broker stages (DES + mesh + replication).

The analytical pipeline (:class:`DeadlinePipeline`) names the stages a
message's budget crosses; these tests verify the *runtime* stages charge
and shed the same way: pre-service shedding at the simulated server,
expiry-on-hop at the mesh router, the sync-replication ack-wait stage,
and the end-to-end witness that an expired message is never dispatched.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.broker.message import Message
from repro.broker.queues import DropPolicy
from repro.core.params import FilterType, costs_for
from repro.core.replication import DeterministicReplication
from repro.mesh.sharded import ShardedBroker
from repro.overload import OverloadConfig
from repro.replication.model import ReplicationLagModel
from repro.resilience import DeadlineBudget, DeadlinePipeline
from repro.resilience.clients import DeadlineRetryPublisher, DeliveryLog
from repro.rng import RandomStreams
from repro.simulation import CpuCostModel, Engine, MeasurementWindow
from repro.testbed.scenario import build_replication_scenario
from repro.testbed.simserver import SimulatedJMSServer


def _server(engine, scenario, **kwargs):
    return SimulatedJMSServer(
        engine=engine,
        broker=scenario.broker,
        cpu=CpuCostModel(costs=costs_for(FilterType.CORRELATION_ID).scaled(100.0)),
        window=MeasurementWindow(start=0.0, end=1e9),
        **kwargs,
    )


class TestPreServiceShed:
    def test_expired_while_queued_is_shed_before_service(self):
        engine = Engine()
        scenario = build_replication_scenario(DeterministicReplication(4))
        server = _server(
            engine,
            scenario,
            overload=OverloadConfig(
                capacity=50, policy=DropPolicy.DROP_NEW, admission_soft=None
            ),
            shed_expired_before_service=True,
        )
        # A burst of 30 deadline-carrying messages: E[B] ≈ 9.7 ms, so a
        # 30 ms deadline lets only the first few through; the rest go
        # dead *in the queue* and must be shed at zero service cost.
        for _ in range(30):
            message = scenario.make_message(4)
            message.expiration = engine.now + 0.03
            server.submit(message)
        engine.run()
        assert server.ledger.expired_in_flight > 0
        assert server.ledger.completed + server.ledger.expired_in_flight == 30
        assert server.broker.stats.expired_in_flight == server.ledger.expired_in_flight
        # Shed work was never dispatched: only completed messages were.
        assert server.ledger.delivered == server.ledger.completed

    def test_flag_off_serves_dead_work(self):
        engine = Engine()
        scenario = build_replication_scenario(DeterministicReplication(4))
        server = _server(engine, scenario)
        for _ in range(10):
            message = scenario.make_message(4)
            message.expiration = engine.now + 0.03
            server.submit(message)
        engine.run()
        # Without the flag the server pays for every message; the broker
        # still refuses to dispatch the expired ones at publish time.
        assert server.ledger.expired_in_flight == 0
        assert server.ledger.completed == 10
        assert server.ledger.expired > 0


class TestMeshHopStage:
    def test_expired_on_hop_never_reaches_the_owner(self, assert_conserved):
        mesh = ShardedBroker(["s0", "s1", "s2"], hop_latency=0.2)
        mesh.create_queue("orders")
        dead = Message(topic="orders", expiration=0.1)  # dies mid-hop
        alive = Message(topic="orders", expiration=5.0)
        assert mesh.send("orders", dead, now=0.0) is False
        mesh.send("orders", alive, now=0.0)
        assert mesh.expired_on_hop == 1
        # The shed message never entered a queue ledger; the survivor did.
        assert mesh.queue("orders").enqueued == 1
        assert mesh.queue("orders").depth == 1
        assert_conserved(mesh.mesh_ledger(), context="expired on hop")

    def test_batch_send_filters_expired(self):
        mesh = ShardedBroker(["s0", "s1"], hop_latency=0.5)
        mesh.create_queue("orders")
        batch = [
            Message(topic="orders", expiration=0.4),
            Message(topic="orders", expiration=1.0),
            Message(topic="orders", expiration=0.2),
        ]
        mesh.send_batch("orders", batch, now=0.0)
        assert mesh.expired_on_hop == 2
        assert mesh.queue("orders").enqueued == 1

    def test_zero_latency_hop_charges_nothing(self):
        mesh = ShardedBroker(["s0", "s1"])
        mesh.create_queue("orders")
        # expiration 0.1 survives a free hop (arrival is still t=0).
        mesh.send("orders", Message(topic="orders", expiration=0.1), now=0.0)
        assert mesh.expired_on_hop == 0
        assert mesh.queue("orders").enqueued == 1


class TestReplicationAckStage:
    def _model(self, mode):
        return ReplicationLagModel(
            mode=mode,
            ship_interval=0.05,
            batch_size=8,
            rate=100.0,
            link_delay=0.01,
            lease_duration=0.5,
            renew_interval=0.1,
            replay_rate=1000.0,
        )

    def test_sync_ack_wait_is_half_flush_plus_round_trip(self):
        model = self._model("sync")
        assert model.ack_wait_seconds == pytest.approx(
            model.flush_period / 2 + 2 * model.link_delay
        )
        assert model.to_dict()["ack_wait_seconds"] == model.ack_wait_seconds

    def test_async_acks_immediately(self):
        assert self._model("async").ack_wait_seconds == 0.0

    def test_ack_wait_feeds_the_pipeline(self):
        model = self._model("sync")
        pipeline = DeadlinePipeline.from_components(
            ingress_wait=0.05,
            journal_append=0.01,
            mesh_hops=1,
            hop_latency=0.02,
            replication_ack_wait=model.ack_wait_seconds,
            service=0.01,
        )
        # A budget that covers everything but the ack-wait dies there.
        before_ack = 0.05 + 0.01 + 0.02
        budget = DeadlineBudget(total=before_ack + model.ack_wait_seconds / 2)
        assert pipeline.shed_stage(budget) == "replication-ack"
        assert pipeline.survivable(
            DeadlineBudget(total=pipeline.end_to_end_latency + 0.01)
        )


class TestEndToEnd:
    def test_no_expired_message_is_ever_dispatched(self):
        """The PR's hard acceptance line, in miniature: overload a server
        with deadline-carrying traffic and watch the delivery log."""
        engine = Engine()
        streams = RandomStreams(seed=7)
        scenario = build_replication_scenario(
            DeterministicReplication(4), drain_inboxes=False
        )
        server = _server(
            engine,
            scenario,
            overload=OverloadConfig(
                capacity=20, policy=DropPolicy.DROP_NEW, admission_soft=None
            ),
            report_drops=True,
            shed_expired_before_service=True,
        )
        log = DeliveryLog(engine)
        assert log.install(scenario.broker) == 4
        publisher = DeadlineRetryPublisher(
            engine=engine,
            server=server,
            rate=150.0,  # ρ ≈ 1.45: deadlines will be breached constantly
            message_factory=lambda: scenario.make_message(4),
            rng=streams.stream("arrivals"),
            timeout=0.1,
            max_retries=2,
            late_retry=True,
            attach_deadline=True,
            log=log,
            stop_time=20.0,
        )
        publisher.start()
        engine.run()
        assert publisher.generated > 1000
        assert server.ledger.expired_in_flight > 0  # the stage actually fired
        assert log.expired_delivered == 0  # and no dead work got out
        assert publisher.goodput > 0
        assert publisher.goodput == len(publisher.goodput_times)
