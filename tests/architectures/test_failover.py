"""Tests for PSR/SSR failover: the survivors' mesh and the worst survivor.

When ``k`` of the servers fail, the degraded system is the mesh of the
survivors: :func:`~repro.mesh.capacity.mesh_capacity` over ``n − k``
uniform shards.  Under ``psr`` placement each survivor keeps every
filter and takes ``1/(n − k)`` of the stream; under ``ssr`` placement
each survivor sees the full stream and hosts ``f = m/(m − k)``
subscribers' filters and replication.  Each failed primary's recovery is
its pair's :class:`~repro.replication.ReplicationLagModel`.
"""

import pytest

from repro.architectures import (
    PublisherSideReplication,
    SubscriberSideReplication,
    SystemParameters,
    simulate_server_under_load,
)
from repro.architectures.failover import worst_survivor_absorption
from repro.core.params import CORRELATION_ID_COSTS
from repro.mesh.capacity import mesh_capacity
from repro.replication import ReplicationLagModel


def params(publishers=4, subscribers=4, **kwargs):
    defaults = dict(
        costs=CORRELATION_ID_COSTS,
        publishers=publishers,
        subscribers=subscribers,
        filters_per_subscriber=10,
        mean_replication=1.0,
        rho=0.9,
    )
    defaults.update(kwargs)
    return SystemParameters(**defaults)


def survivors(p, placement, failed, system_rate=None):
    """The degraded system: the mesh of the servers still up."""
    total = p.publishers if placement == "psr" else p.subscribers
    shard_ids = [f"s{i}" for i in range(total - failed)]
    return mesh_capacity(p, shard_ids, placement=placement, system_rate=system_rate)


class TestPsrFailover:
    def test_capacity_scales_with_survivors(self):
        healthy = survivors(params(), "psr", failed=0)
        degraded = survivors(params(), "psr", failed=1)
        assert degraded.capacity / healthy.capacity == pytest.approx(3 / 4)
        assert degraded.shard_count == 3

    def test_service_time_unchanged(self):
        degraded = survivors(params(), "psr", failed=2)
        expected = PublisherSideReplication(params()).per_server_service_time()
        assert degraded.bottleneck.mean_service == pytest.approx(expected)

    def test_zero_failures_is_identity(self):
        healthy = survivors(params(), "psr", failed=0)
        expected = PublisherSideReplication(params()).system_capacity()
        assert healthy.capacity == pytest.approx(expected)

    def test_sustainability_at_load(self):
        rate = 0.5 * survivors(params(), "psr", failed=0).capacity
        ok = survivors(params(), "psr", failed=1, system_rate=rate)
        assert max(ok.utilization(rate).values()) < 1.0
        assert all(w is not None and w > 0 for w in ok.mean_waits)
        overload = survivors(params(), "psr", failed=3, system_rate=rate)
        assert max(overload.utilization(rate).values()) >= 1.0
        assert overload.mean_waits == (None,)

    def test_all_servers_failed_rejected(self):
        with pytest.raises(ValueError):
            survivors(params(), "psr", failed=4)

    def test_simulation_confirms_survivor_load_and_wait(self):
        p = params()
        rate = 0.6 * survivors(p, "psr", failed=0).capacity
        report = survivors(p, "psr", failed=1, system_rate=rate)
        sim = simulate_server_under_load(
            costs=p.costs,
            n_fltr=p.subscribers * p.filters_per_subscriber,
            replication_grade=1,
            arrival_rate=rate / 3 / 100.0,
            horizon=200.0,
            seed=3,
            cpu_scale=100.0,
        )
        assert sim.utilization == pytest.approx(
            report.utilization(rate)["s0"], rel=0.05
        )
        assert sim.mean_waiting_time / 100.0 == pytest.approx(
            report.mean_waits[0], rel=0.25
        )


class TestSsrFailover:
    def test_absorption_inflates_service_time(self):
        p = params()
        degraded = survivors(p, "ssr", failed=2)  # f = 2
        expected = (
            p.costs.t_rcv
            + 2 * p.filters_per_subscriber * p.costs.t_fltr
            + 2 * p.mean_replication * p.costs.t_tx
        )
        assert degraded.bottleneck.mean_service == pytest.approx(expected)

    def test_capacity_drops_more_than_proportionally(self):
        # Survivors keep receiving the full stream AND do more work each,
        # so capacity falls below the (m-k)/m line PSR achieves.
        healthy = survivors(params(), "ssr", failed=0)
        assert healthy.capacity == pytest.approx(
            SubscriberSideReplication(params()).system_capacity()
        )
        degraded = survivors(params(), "ssr", failed=2)
        assert degraded.capacity / healthy.capacity < 0.75

    def test_waiting_time_grows_with_failures(self):
        rate = 0.4 * survivors(params(), "ssr", failed=0).capacity
        waits = [
            survivors(params(), "ssr", failed=k, system_rate=rate).mean_waits[0]
            for k in range(3)
        ]
        assert waits[0] < waits[1] < waits[2]

    def test_simulation_confirms_degraded_utilization_and_wait(self):
        p = params()
        rate = 0.5 * survivors(p, "ssr", failed=0).capacity
        report = survivors(p, "ssr", failed=2, system_rate=rate)
        absorb = worst_survivor_absorption(p.subscribers, 2)
        sim = simulate_server_under_load(
            costs=p.costs,
            n_fltr=absorb * p.filters_per_subscriber,
            replication_grade=absorb,
            arrival_rate=rate / 100.0,
            horizon=50.0,
            seed=3,
            cpu_scale=100.0,
        )
        assert sim.utilization == pytest.approx(
            report.utilization(rate)["s0"], rel=0.05
        )
        assert sim.mean_waiting_time / 100.0 == pytest.approx(
            report.mean_waits[0], rel=0.25
        )

    def test_fractional_absorption_simulates_worst_survivor(self):
        # 3 subscribers, 1 failure: f = 3/2 is fractional, so the
        # simulation runs the worst-loaded survivor (absorbs ⌈3/2⌉ = 2
        # subscribers) and bounds the exact fractional formula from above.
        p = params(subscribers=3)
        rate = 0.4 * survivors(p, "ssr", failed=0).capacity
        report = survivors(p, "ssr", failed=1, system_rate=rate)
        absorb = worst_survivor_absorption(p.subscribers, 2)
        assert absorb == 2
        sim = simulate_server_under_load(
            costs=p.costs,
            n_fltr=absorb * p.filters_per_subscriber,
            replication_grade=absorb,
            arrival_rate=rate / 100.0,
            horizon=50.0,
            seed=3,
            cpu_scale=100.0,
        )
        assert sim.utilization >= report.utilization(rate)["s0"] * 0.95

    def test_two_server_pair_regression(self):
        # The original two-server case (m=2, one fails, the survivor
        # absorbs everything): ⌈2/1⌉ is the exact absorption factor
        # f = m/(m−k), as it is whenever the survivors divide m.
        assert worst_survivor_absorption(2, 1) == 2 / 1
        for total, survivors in [(4, 2), (6, 3), (6, 2), (8, 4)]:
            assert worst_survivor_absorption(total, survivors) == total / survivors

    def test_worst_survivor_absorption_helper(self):
        assert worst_survivor_absorption(4, 2) == 2
        assert worst_survivor_absorption(3, 2) == 2
        assert worst_survivor_absorption(5, 5) == 1
        with pytest.raises(ValueError):
            worst_survivor_absorption(2, 0)
        with pytest.raises(ValueError):
            worst_survivor_absorption(2, 3)


class TestReplicatedFailover:
    """Recovery figures when each failed server is the primary of an HA pair."""

    def _lag(self, mode="sync", **overrides):
        defaults = dict(
            mode=mode,
            ship_interval=0.05,
            batch_size=16,
            rate=200.0,
            link_delay=0.002,
            lease_duration=0.25,
            renew_interval=0.05,
            replay_rate=5000.0,
            standby_records=100,
        )
        defaults.update(overrides)
        return ReplicationLagModel(**defaults)

    def test_sync_pairs_lose_nothing(self):
        # Whatever share of the stream a failed primary carried, a sync
        # pair acked none of it before the standby applied it.
        healthy = survivors(params(), "psr", failed=0)
        for system_rate in (100.0, 1000.0, 0.9 * healthy.capacity):
            share = healthy.bottleneck.arrival_share * system_rate
            lag = self._lag(rate=share)
            assert lag.rpo_records == 0.0
            assert lag.rto_seconds == self._lag("async", rate=share).rto_seconds

    def test_async_rpo_scales_with_failures(self):
        # After 2 of 4 PSR servers fail, each survivor's pair ships twice
        # the per-server rate, so its async loss window holds twice the
        # records (the flush period stays the ship interval: 16/200 > 0.05).
        system_rate = 400.0
        rpo = []
        for failed in (0, 2):
            mesh = survivors(params(), "psr", failed=failed)
            share = mesh.bottleneck.arrival_share * system_rate
            lag = self._lag("async", rate=share)
            assert lag.flush_period == 0.05
            rpo.append(lag.rpo_records)
        assert rpo[0] > 0.0
        assert rpo[1] == pytest.approx(2 * rpo[0])

    def test_deferred_messages_cover_the_blackout(self):
        # The failed primary's share of the stream queues behind its
        # promotion for the whole RTO: lease-expiry detection plus replay.
        p = params()
        rate = 0.5 * survivors(p, "psr", failed=0).capacity
        share = survivors(p, "psr", failed=0).bottleneck.arrival_share * rate
        lag = self._lag(rate=share)
        deferred = share * lag.rto_seconds
        assert deferred == pytest.approx(
            share * (0.25 - 0.05 / 2) + share * 100 / 5000.0
        )
        assert deferred > share * lag.detection_seconds

    def test_no_rate_means_no_deferred_estimate(self):
        report = survivors(params(), "psr", failed=1)
        assert report.system_rate is None
        assert report.mean_waits is None

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            mesh_capacity(params(), ["s0", "s1"], placement="star")
        with pytest.raises(ValueError):
            self._lag(mode="star")

    def test_capacity_figures_delegate_to_the_plain_report(self):
        # Pairing the failed servers changes the recovery figures, not the
        # survivors' capacity: the degraded mesh is the same with or
        # without a rate to evaluate the waits at.
        plain = survivors(params(), "psr", failed=1)
        loaded = survivors(params(), "psr", failed=1, system_rate=100.0)
        assert loaded.capacity == plain.capacity
        assert loaded.shard_count == plain.shard_count == 3
