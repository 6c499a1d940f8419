"""Tests for the analytic RPO/RTO model and the ship-cost amortization."""

import pytest

from repro.replication import ReplicationLagModel, amortized_ship_overhead


def model(**overrides):
    defaults = dict(
        mode="async",
        ship_interval=0.05,
        batch_size=16,
        rate=200.0,
        link_delay=0.002,
        lease_duration=0.25,
        renew_interval=0.05,
        replay_rate=50_000.0,
        standby_records=1000,
    )
    defaults.update(overrides)
    return ReplicationLagModel(**defaults)


class TestLagModel:
    def test_sync_rpo_is_exactly_zero(self):
        assert model(mode="sync").rpo_records == 0.0

    def test_async_rpo_formula(self):
        m = model()
        # T = min(0.05, 16/200=0.08) = 0.05; λ(T/2 + d) = 200*(0.025+0.002)
        assert m.flush_period == 0.05
        assert m.rpo_records == pytest.approx(200.0 * 0.027)

    def test_batch_fill_limits_the_flush_period(self):
        m = model(ship_interval=1.0, batch_size=10, rate=100.0)
        assert m.flush_period == pytest.approx(0.1)

    def test_detection_accounts_for_renewal_phase(self):
        m = model()
        assert m.detection_seconds == pytest.approx(0.25 - 0.05 / 2)

    def test_rto_is_detection_plus_replay(self):
        m = model()
        assert m.replay_seconds == pytest.approx(1000 / 50_000.0)
        assert m.rto_seconds == pytest.approx(m.detection_seconds + m.replay_seconds)

    def test_rpo_grows_with_ship_interval(self):
        small = model(ship_interval=0.01, batch_size=1000)
        large = model(ship_interval=0.2, batch_size=1000)
        assert large.rpo_records > small.rpo_records

    def test_validation(self):
        with pytest.raises(ValueError):
            model(mode="eventual")
        with pytest.raises(ValueError):
            model(rate=0.0)
        with pytest.raises(ValueError):
            model(link_delay=float("nan"))
        with pytest.raises(ValueError):
            model(standby_records=-1)
        with pytest.raises(ValueError):
            model(lease_duration=0.05, renew_interval=0.05)

    def test_to_dict_round_trip_fields(self):
        payload = model().to_dict()
        for key in ("rpo_records", "detection_seconds", "rto_seconds", "flush_period"):
            assert key in payload


class TestShipOverhead:
    def test_amortization(self):
        assert amortized_ship_overhead(0.004, 8) == pytest.approx(0.0005)

    def test_validation(self):
        with pytest.raises(ValueError):
            amortized_ship_overhead(-1e-3, 8)
        with pytest.raises(ValueError):
            amortized_ship_overhead(1e-3, 0)
