"""Prompt rejection of blocked publishers (SHEDDING / server down).

A publisher blocked on a push-back credit must not sit out its full
credit timeout when the server transitions to SHEDDING: the server
drains the flow-controller waiters and fails them immediately with
``ServerOverloadedError`` so the retry loops can back off.
"""

import pytest

from repro.broker import (
    Broker,
    DropPolicy,
    Message,
    ServerOverloadedError,
)
from repro.broker.errors import ServerUnavailableError
from repro.broker.flow_control import FlowController
from repro.core import CORRELATION_ID_COSTS
from repro.overload import HealthState, OverloadConfig
from repro.simulation import CpuCostModel, Engine, MeasurementWindow
from repro.testbed.simserver import SimulatedJMSServer


def make_block_mode_server(capacity=3):
    engine = Engine()
    broker = Broker(topics=["t"])
    sub = broker.add_subscriber("s0")
    broker.subscribe(sub, "t")
    # Cheap services keep the *estimated* utilization near zero, so the
    # health state is driven purely by the primed estimates below.
    cpu = CpuCostModel(CORRELATION_ID_COSTS.scaled(100.0))
    server = SimulatedJMSServer(
        engine=engine,
        broker=broker,
        cpu=cpu,
        window=MeasurementWindow(0.0, 1e9),
        overload=OverloadConfig(capacity=capacity, policy=DropPolicy.BLOCK),
    )
    return engine, server


class TestFlowControllerDrainWaiters:
    def test_waiters_returned_credits_kept(self):
        flow = FlowController(capacity=1)
        assert flow.try_acquire()
        grants = []
        flow.acquire(lambda: grants.append("a"))
        flow.acquire(lambda: grants.append("b"))
        drained = flow.drain_waiters()
        assert len(drained) == 2
        assert flow.waiting == 0
        assert flow.in_flight == 1  # the served message keeps its credit
        assert grants == []  # drained waiters were never granted

    def test_release_after_drain_frees_credit(self):
        flow = FlowController(capacity=1)
        assert flow.try_acquire()
        flow.acquire(lambda: None)
        flow.drain_waiters()
        flow.release()
        assert flow.available == 1


class TestSheddingTransition:
    def test_blocked_publisher_rejected_promptly(self):
        """Regression: entering SHEDDING must fail blocked waiters *now*."""
        engine, server = make_block_mode_server(capacity=2)
        # Fill both credits (one in service, one queued).
        for _ in range(2):
            server.submit(Message(topic="t"))
        errors = []
        handle = server.submit(Message(topic="t"), on_reject=errors.append)
        assert handle.pending  # blocked on push-back
        assert server.health_state is HealthState.HEALTHY
        # Drive the estimated utilization past the shedding threshold and
        # deliver one more observation; the health FSM must escalate and
        # shed the blocked waiter synchronously — no timer involved.
        assert server.admission is not None
        server.admission.prime(rate=100.0, service_mean=0.1)  # rho-hat = 10
        late = server.submit(Message(topic="t"))
        assert server.health_state is HealthState.SHEDDING
        assert handle.rejected and not handle.pending
        assert isinstance(handle.error, ServerOverloadedError)
        assert errors and isinstance(errors[0], ServerOverloadedError)
        # The triggering submit would have blocked on a shedding server:
        # it is failed fast too, instead of queueing a doomed waiter.
        assert late.rejected
        assert isinstance(late.error, ServerOverloadedError)
        assert server.ledger.waiters_shed == 2
        assert server.broker.stats.health == "shedding"

    def test_in_flight_messages_still_served_after_shedding(self):
        """Shedding fails the *waiters*; accepted messages still complete."""
        engine, server = make_block_mode_server(capacity=2)
        for _ in range(2):
            server.submit(Message(topic="t"))
        server.submit(Message(topic="t"))  # blocked
        assert server.admission is not None
        server.admission.prime(rate=100.0, service_mean=0.1)
        server.submit(Message(topic="t"))
        engine.run()
        # Both credit-holding messages completed despite the transition.
        assert server.ledger.completed == 2
        assert server.queue_depth == 0

    def test_healthy_server_does_not_shed_waiters(self):
        engine, server = make_block_mode_server(capacity=2)
        for _ in range(2):
            server.submit(Message(topic="t"))
        handle = server.submit(Message(topic="t"))
        assert handle.pending
        engine.run()  # credits free up normally; the waiter gets served
        assert handle.accepted
        assert server.ledger.waiters_shed == 0
        assert server.ledger.completed == 3


class TestDownServer:
    def test_submit_fails_fast_when_down(self):
        engine, server = make_block_mode_server()
        server.submit(Message(topic="t"))
        engine.run()
        server.crash()
        errors = []
        handle = server.submit(Message(topic="t"), on_reject=errors.append)
        assert handle.rejected
        assert isinstance(handle.error, ServerUnavailableError)
        assert errors

    def test_crash_fails_blocked_waiters(self):
        engine, server = make_block_mode_server(capacity=2)
        for _ in range(2):
            server.submit(Message(topic="t"))
        handle = server.submit(Message(topic="t"))
        assert handle.pending
        server.crash()
        assert handle.rejected
        assert isinstance(handle.error, ServerUnavailableError)
