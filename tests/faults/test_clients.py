"""Tests for the fault-tolerant publisher and submit-handle cancellation."""

from repro.broker import ServerUnavailableError
from repro.faults import RetryPolicy, RetryingPoissonPublisher
from repro.rng import RandomStreams


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
