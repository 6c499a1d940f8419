"""Tests for fault-tolerant publishers and submit-handle cancellation."""

import pytest

from repro.broker import ServerUnavailableError
from repro.faults import ReliablePublisher, RetryPolicy, RetryingPoissonPublisher
from repro.overload import BreakerState, CircuitBreaker
from repro.simulation import RandomStreams


class TestSubmitHandle:
    def test_fail_fast_when_server_down(self, rig):
        rig.server.crash()
        errors = []
        handle = rig.server.submit(rig.make_message(), on_reject=errors.append)
        assert handle.rejected and not handle.accepted
        assert isinstance(handle.error, ServerUnavailableError)
        assert isinstance(errors[0], ServerUnavailableError)
        assert rig.server.ledger.rejected_submits == 1

    def test_cancel_withdraws_blocked_submit(self, rig):
        # Fill the 4-credit buffer plus the server's service slot.
        for _ in range(4):
            rig.server.submit(rig.make_message())
        blocked = rig.server.submit(rig.make_message())
        assert blocked.pending
        assert blocked.cancel()
        assert blocked.cancelled
        rig.engine.run()
        # The cancelled message never entered the server.
        assert rig.server.ledger.accepted == 4

    def test_cancel_after_acceptance_is_noop(self, rig):
        handle = rig.server.submit(rig.make_message())
        assert handle.accepted
        assert not handle.cancel()
        rig.engine.run()
        assert rig.server.ledger.completed == 1


class TestRetryingPoissonPublisher:
    def _publisher(self, rig, policy, rate=20.0, stop_time=5.0):
        streams = RandomStreams(seed=5)
        return RetryingPoissonPublisher(
            engine=rig.engine,
            server=rig.server,
            rate=rate,
            message_factory=rig.make_message,
            rng=streams.stream("arrivals"),
            retry_rng=streams.stream("retry"),
            policy=policy,
            stop_time=stop_time,
        )

    def test_all_messages_land_without_faults(self, rig):
        publisher = self._publisher(rig, RetryPolicy())
        publisher.start()
        rig.engine.run()
        assert publisher.generated > 0
        assert publisher.accepted == publisher.generated
        assert publisher.retries == 0
        assert publisher.in_flight == 0

    def test_outage_defers_but_does_not_lose_arrivals(self, rig):
        publisher = self._publisher(rig, RetryPolicy())
        publisher.start()
        rig.engine.call_at(1.0, rig.server.crash)
        rig.engine.call_at(3.0, rig.server.restart)
        rig.engine.run()
        assert publisher.retries > 0
        assert publisher.accepted == publisher.generated
        assert rig.server.ledger.accepted + rig.server.ledger.lost_on_crash >= publisher.accepted - 4

    def test_accept_latency_grows_with_outage(self, rig):
        publisher = self._publisher(rig, RetryPolicy())
        publisher.start()
        rig.engine.call_at(1.0, rig.server.crash)
        rig.engine.call_at(3.0, rig.server.restart)
        rig.engine.run()
        assert publisher.mean_accept_latency > 0.01

    def test_retry_budget_abandons(self, rig):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.02, jitter=0.0, max_retries=2)
        publisher = self._publisher(rig, policy, stop_time=2.0)
        publisher.start()
        rig.engine.call_at(0.5, rig.server.crash)
        rig.engine.run(until=10.0)
        rig.server.restart()
        rig.engine.run()
        assert publisher.abandoned > 0
        assert publisher.accepted + publisher.abandoned == publisher.generated

    def test_credit_timeout_cancels_and_retries(self, rig):
        # Rate far above capacity: the buffer fills, waiters time out.
        policy = RetryPolicy(base_delay=0.01, jitter=0.0, credit_timeout=0.05)
        publisher = self._publisher(rig, policy, rate=500.0, stop_time=0.5)
        publisher.start()
        rig.engine.run()
        assert publisher.timeouts > 0
        assert publisher.accepted == publisher.generated
        assert publisher.in_flight == 0


class TestReliablePublisher:
    def test_finite_workload_drains_across_outage(self, rig):
        publisher = ReliablePublisher(
            engine=rig.engine,
            server=rig.server,
            message_factory=rig.make_message,
            policy=RetryPolicy(jitter=0.0),
            total_messages=30,
        )
        publisher.start()
        rig.engine.call_at(0.1, rig.server.crash)
        rig.engine.call_at(0.6, rig.server.restart)
        rig.engine.run()
        assert publisher.done
        assert publisher.sent == 30
        assert publisher.retries > 0
        assert rig.server.ledger.delivered + rig.server.ledger.lost_on_crash >= 29


class TestBreakerComposition:
    """RetryingPoissonPublisher + CircuitBreaker: back off without losing work."""

    def _publisher(self, rig, breaker, rate=50.0, stop_time=4.0):
        streams = RandomStreams(seed=7)
        return RetryingPoissonPublisher(
            engine=rig.engine,
            server=rig.server,
            rate=rate,
            message_factory=rig.make_message,
            rng=streams.stream("arrivals"),
            retry_rng=streams.stream("retry"),
            policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
            stop_time=stop_time,
            breaker=breaker,
        )

    def _breaker(self):
        return CircuitBreaker(failure_threshold=3, recovery_timeout=0.5, jitter=0.0)

    def test_breaker_short_circuits_during_outage(self, rig):
        breaker = self._breaker()
        publisher = self._publisher(rig, breaker)
        publisher.start()
        rig.engine.call_at(1.0, rig.server.crash)
        rig.engine.run(until=2.0)
        # Three real rejections trip the breaker; every later attempt is
        # short-circuited on the client instead of hammering the server.
        assert breaker.state is not BreakerState.CLOSED
        assert breaker.opened_count >= 1
        assert breaker.short_circuited > 0
        assert rig.server.ledger.rejected_submits < publisher.retries

    def test_breaker_closes_on_recovery_and_drains(self, rig):
        breaker = self._breaker()
        publisher = self._publisher(rig, breaker)
        publisher.start()
        rig.engine.call_at(1.0, rig.server.crash)
        rig.engine.call_at(2.0, rig.server.restart)
        rig.engine.run()
        # A half-open probe succeeded and the breaker closed again.
        assert breaker.state is BreakerState.CLOSED
        assert breaker.probes >= 1
        # Nothing was lost: deferred arrivals all landed after recovery.
        assert publisher.accepted == publisher.generated
        assert publisher.in_flight == 0

    def test_breaker_reduces_futile_submits(self, rig, rig_factory):
        """The breaker's value: fewer rejected submits for the same workload."""
        rejected = {}
        for label, breaker in (("with", self._breaker()), ("without", None)):
            fresh = rig_factory()
            streams = RandomStreams(seed=7)
            publisher = RetryingPoissonPublisher(
                engine=fresh.engine,
                server=fresh.server,
                rate=50.0,
                message_factory=fresh.make_message,
                rng=streams.stream("arrivals"),
                retry_rng=streams.stream("retry"),
                policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
                stop_time=4.0,
                breaker=breaker,
            )
            publisher.start()
            fresh.engine.call_at(1.0, fresh.server.crash)
            fresh.engine.call_at(3.0, fresh.server.restart)
            fresh.engine.run()
            assert publisher.accepted == publisher.generated
            rejected[label] = fresh.server.ledger.rejected_submits
        assert rejected["with"] < rejected["without"]


class TestRouterFailover:
    """Publishers re-home to a newly promoted server via the router hook."""

    def _backup_server(self, rig):
        from repro.core.params import FilterType, costs_for
        from repro.simulation import CpuCostModel, MeasurementWindow
        from repro.testbed.scenario import build_filter_scenario
        from repro.testbed.simserver import SimulatedJMSServer

        scenario = build_filter_scenario(
            filter_type=FilterType.CORRELATION_ID,
            replication_grade=1,
            n_additional=2,
            durable=True,
        )
        return SimulatedJMSServer(
            engine=rig.engine,
            broker=scenario.broker,
            cpu=CpuCostModel(
                costs=costs_for(FilterType.CORRELATION_ID).scaled(1000.0)
            ),
            window=MeasurementWindow(start=0.0, end=100.0),
            buffer_capacity=4,
        )

    def test_retrying_publisher_redirects_after_failover(self, rig):
        backup = self._backup_server(rig)
        leader = {"server": rig.server}
        streams = RandomStreams(seed=5)
        publisher = RetryingPoissonPublisher(
            engine=rig.engine,
            server=rig.server,
            rate=20.0,
            message_factory=rig.make_message,
            rng=streams.stream("arrivals"),
            retry_rng=streams.stream("retry"),
            policy=RetryPolicy(),
            stop_time=4.0,
            router=lambda: leader["server"],
        )
        publisher.start()

        def fail_over():
            rig.server.crash()
            leader["server"] = backup

        rig.engine.call_at(1.0, fail_over)
        rig.engine.run()
        assert publisher.failovers == 1
        assert publisher.server is backup
        assert publisher.accepted == publisher.generated
        assert backup.ledger.accepted > 0
        # Only crash-time rejections (messages already in the primary's
        # buffer) hit the dead server; every post-failover attempt goes
        # straight to the backup instead of hammering the corpse.
        assert rig.server.ledger.rejected_submits <= 1 + 4  # in-flight + buffered

    def test_reliable_publisher_drains_through_the_new_leader(self, rig):
        backup = self._backup_server(rig)
        leader = {"server": rig.server}
        streams = RandomStreams(seed=5)
        publisher = ReliablePublisher(
            engine=rig.engine,
            server=rig.server,
            message_factory=rig.make_message,
            policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
            retry_rng=streams.stream("retry"),
            total_messages=10,
            router=lambda: leader["server"],
        )

        def fail_over():
            rig.server.crash()
            leader["server"] = backup

        rig.engine.call_at(0.05, fail_over)
        publisher.start()
        rig.engine.run()
        assert publisher.done
        assert publisher.failovers == 1
        assert publisher.abandoned == 0
        assert rig.server.ledger.accepted + backup.ledger.accepted >= 10

    def test_no_router_keeps_the_bound_server(self, rig):
        publisher = ReliablePublisher(
            engine=rig.engine,
            server=rig.server,
            message_factory=rig.make_message,
            policy=RetryPolicy(),
            total_messages=3,
        )
        publisher.start()
        rig.engine.run()
        assert publisher.failovers == 0
        assert publisher.server is rig.server
