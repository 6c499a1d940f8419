"""Tests for the RPO/RTO failover sweep (model versus DES)."""

import pytest

from repro.replication.experiment import failover_sweep


@pytest.fixture(scope="module")
def sweep():
    # One small point per mode keeps the suite fast; the full grid runs
    # in ``repro bench replication``.
    return failover_sweep(
        ship_intervals=(0.05,),
        modes=("sync", "async"),
        rate=150.0,
        lease_duration=0.2,
        renew_interval=0.05,
        horizon=0.6,
        seeds=2,
    )


class TestFailoverSweep:
    def test_one_row_per_mode_and_interval(self, sweep):
        assert len(sweep) == 2
        assert {p.mode for p in sweep} == {"sync", "async"}

    def test_sync_measures_exactly_zero_rpo(self, sweep):
        (sync_row,) = [p for p in sweep if p.mode == "sync"]
        assert sync_row.rpo_measured == 0.0
        assert sync_row.rpo_model == 0.0

    def test_async_rpo_positive_and_modeled(self, sweep):
        (async_row,) = [p for p in sweep if p.mode == "async"]
        assert async_row.rpo_model > 0.0
        assert async_row.rpo_measured >= 0.0

    def test_rto_tracks_the_detection_model(self, sweep):
        for row in sweep:
            assert row.rto_measured > 0.0
            assert row.rto_rel_err < 0.5

    def test_to_dict_keys(self, sweep):
        payload = sweep[0].to_dict()
        for key in ("mode", "ship_interval", "rpo_model", "rpo_measured",
                    "rto_model", "rto_measured", "rto_rel_err"):
            assert key in payload

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            failover_sweep(seeds=0)
