"""Simulation cross-checks of the architecture formulas."""

import pytest

from repro.architectures import (
    PublisherSideReplication,
    SubscriberSideReplication,
    SystemParameters,
    simulate_psr_server,
    simulate_server_under_load,
    simulate_ssr_server,
)
from repro.core import (
    CORRELATION_ID_COSTS,
    DeterministicReplication,
    MG1Queue,
    shifted_scaled_moments,
)
from repro.core.service_time import ServiceTimeModel


def params(n=10, m=20, n_fltr=5):
    return SystemParameters(
        costs=CORRELATION_ID_COSTS,
        publishers=n,
        subscribers=m,
        filters_per_subscriber=n_fltr,
        mean_replication=1.0,
        rho=0.9,
    )


class TestServerUnderLoad:
    def test_utilization_matches_target(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=20, replication=DeterministicReplication(2)
        )
        rate = 0.5 / (model.mean * 1000.0)  # 50% load on a 1000x-slowed CPU
        result = simulate_server_under_load(
            costs=CORRELATION_ID_COSTS,
            n_fltr=20,
            replication_grade=2,
            arrival_rate=rate,
            horizon=4000.0,
            cpu_scale=1000.0,
        )
        assert result.utilization == pytest.approx(0.5, abs=0.03)
        assert result.dispatched_rate == pytest.approx(2 * result.received_rate, rel=0.01)

    def test_waiting_time_matches_mg1(self):
        """Open-loop load on the broker server must reproduce P-K waits."""
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=10, replication=DeterministicReplication(1)
        )
        scale = 1000.0
        rho = 0.7
        rate = rho / (model.mean * scale)
        result = simulate_server_under_load(
            costs=CORRELATION_ID_COSTS,
            n_fltr=10,
            replication_grade=1,
            arrival_rate=rate,
            horizon=30_000.0,
            cpu_scale=scale,
        )
        queue = MG1Queue(rate, shifted_scaled_moments(0.0, scale, model.moments))
        assert result.mean_waiting_time == pytest.approx(queue.mean_wait, rel=0.10)

    def test_replication_beyond_filters_rejected(self):
        with pytest.raises(ValueError):
            simulate_server_under_load(
                costs=CORRELATION_ID_COSTS,
                n_fltr=2,
                replication_grade=3,
                arrival_rate=1.0,
                horizon=10.0,
            )


class TestPSRSimulation:
    def test_per_server_utilization(self):
        p = params(m=4, n_fltr=2)
        result = simulate_psr_server(p, utilization=0.6, horizon=2000.0, cpu_scale=1000.0)
        assert result.utilization == pytest.approx(0.6, abs=0.04)

    def test_per_server_rate_matches_eq21(self):
        """At utilization rho the per-server rate equals Eq. 21 / n."""
        p = params(n=10, m=4, n_fltr=2)
        psr = PublisherSideReplication(p)
        result = simulate_psr_server(p, utilization=0.9, horizon=2000.0, cpu_scale=1000.0)
        expected = psr.system_capacity() / p.publishers / 1000.0
        assert result.received_rate == pytest.approx(expected, rel=0.03)

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            simulate_psr_server(params(), utilization=1.2, horizon=10.0)


class TestSSRSimulation:
    def test_per_server_utilization(self):
        p = params(m=3, n_fltr=4)
        result = simulate_ssr_server(p, utilization=0.5, horizon=2000.0, cpu_scale=1000.0)
        assert result.utilization == pytest.approx(0.5, abs=0.04)

    def test_capacity_matches_eq22(self):
        p = params(n=7, m=3, n_fltr=4)
        ssr = SubscriberSideReplication(p)
        result = simulate_ssr_server(p, utilization=0.9, horizon=2000.0, cpu_scale=1000.0)
        expected = ssr.system_capacity() / 1000.0
        assert result.received_rate == pytest.approx(expected, rel=0.03)
