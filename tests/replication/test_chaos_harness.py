"""Tests for the replication chaos harness (the no-lost-ack oracle)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.failover import run_replication_chaos_harness


class TestHarness:
    def test_default_run_is_clean(self):
        report = run_replication_chaos_harness(seed=0, ops=8)
        assert report.ok, report.violations
        # modes x scenarios x crash-after-every-step
        assert len(report.points) == 2 * len(report.params["scenarios"]) * 8
        assert report.params["split_brain_checked"]
        # one lease-pause check per mode, reported beside the points
        assert [check.coords for check in report.checks] == [
            {"check": "lease-pause", "mode": "sync"},
            {"check": "lease-pause", "mode": "async"},
        ]

    def test_sync_only_run(self):
        report = run_replication_chaos_harness(seed=1, ops=6, modes=("sync",))
        assert report.ok, report.violations
        assert report.params["modes"] == ["sync"]
        # Sync acks wait for standby application: no acked record may be
        # lost under any crash point or link fault.
        assert report.params["max_async_loss"] == 0
        assert all(point.lost == 0 for point in report.points)

    def test_async_loss_stays_inside_the_shipped_lag_window(self):
        report = run_replication_chaos_harness(seed=2, ops=8, modes=("async",))
        assert report.ok, report.violations
        # The bound is checked per crash point inside the harness; a
        # clean report certifies every loss fit its lag window.
        assert report.params["max_async_loss"] == max(p.lost for p in report.points)

    def test_to_dict_shape(self):
        report = run_replication_chaos_harness(seed=0, ops=3, modes=("sync",))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["points"] == len(report.points)
        assert payload["violations"] == []


class TestChaosSoak:
    """Seeded soak: the no-lost-ack invariant must hold for any seed."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_no_lost_ack_across_seeds(self, seed):
        report = run_replication_chaos_harness(seed=seed, ops=6)
        assert report.ok, report.violations
