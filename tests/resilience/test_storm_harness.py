"""The storm chaos harness: metastability demonstrated and defeated.

This is the PR's acceptance test: after a 10× transient slowdown at
ρ = 0.9, the budgeted+deadline client recovers ≥ 95 % of its pre-fault
goodput within the horizon while the unbudgeted control stays stormed;
no deadline-expired message is ever delivered and hedging never
double-delivers.
"""

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro.resilience.harness import StormHarnessConfig, run_storm_harness


@pytest.fixture(scope="module")
def report():
    return run_storm_harness()


class TestStormHarness:
    def test_model_predicts_the_regimes(self, report):
        assert report.unbudgeted_classification == "metastable"
        assert report.budgeted_classification == "stable"

    def test_control_storms_and_stays_stormed(self, report):
        control = report.control
        # Post-fault λ_eff sits at the storm fixed point (≈ 1+r = 7×λ)…
        assert control.post_amplification > 5.0
        # …long after the 8 s fault cleared, and goodput stays collapsed.
        assert control.recovery_ratio < 0.1
        assert control.late_retries > 0

    def test_protected_recovers_goodput(self, report):
        protected = report.protected
        assert report.protected_recovered
        assert protected.recovery_ratio >= report.config.recovery_threshold
        # λ_eff returned to the normal fixed point, not the storm.
        assert protected.post_amplification < 1.5
        # The budget is what refused the storm.
        assert protected.budget_denied > 0

    def test_deadline_propagation_sheds_dead_work(self, report):
        # The protected run sheds expired messages pre-service…
        assert report.protected.expired_in_flight > 0
        # …and none of them is ever dispatched to a subscriber.
        assert report.no_dead_work_delivered
        # The control attaches no deadline, so nothing is shed in flight.
        assert report.control.expired_in_flight == 0

    def test_hedging_is_exactly_once(self, report):
        assert report.protected.hedges > 0
        assert report.exactly_once
        assert report.protected.double_deliveries == 0

    def test_ledgers_balance(self, report, assert_conserved):
        for result in (report.control, report.protected):
            assert result.ledger_balanced, result.to_metrics()

    def test_the_verdict_reads_the_witness_it_carries(self, report):
        for result in (report.control, report.protected):
            result.ledger.assert_conserved(result.name)
        assert report.ledgers_balanced and "IMBALANCED" not in report.describe()
        lost_one = report.control.ledger.closed(backlog=1, in_service=0)
        cooked = replace(report, control=replace(report.control, ledger=lost_one))
        assert not cooked.ledgers_balanced and not cooked.passed
        assert "control: server ledger IMBALANCED: IngressLedger(accepted=" in cooked.describe()

    def test_report_surfaces(self, report):
        assert report.passed
        metrics = report.to_metrics()
        assert metrics["passed"] == 1.0
        assert "protected_recovery_ratio" in metrics
        assert "rho=0.9" in report.describe()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="post window"):
            StormHarnessConfig(horizon=50.0)
        with pytest.raises(ValueError, match="slowdown"):
            StormHarnessConfig(slowdown=0.5)
