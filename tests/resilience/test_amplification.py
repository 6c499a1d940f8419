"""DES validation of λ_eff against the fixed-point model."""

import pytest

np = pytest.importorskip("numpy")

from repro.core.service_time import ReplicationFamily
from repro.overload.experiment import OverloadExperimentConfig
from repro.resilience.experiment import (
    ResilienceCellConfig,
    run_resilience_cell,
    validate_amplification,
)

#: Reduced-horizon versions of the bench cells (tier-1 runtime budget);
#: the full suite runs in ``repro bench resilience``.
_CELLS = (
    ResilienceCellConfig(seed=12, rho=1.1, capacity=8, max_retries=3, messages=12000),
    ResilienceCellConfig(
        seed=13, rho=1.1, capacity=8, max_retries=3, budget_ratio=0.05, messages=12000
    ),
)


@pytest.fixture(scope="module")
def results():
    return validate_amplification(_CELLS)


class TestAmplificationValidation:
    def test_model_matches_des_within_five_percent(self, results):
        for result in results:
            assert result.lambda_rel_err <= 0.05, (
                f"cell rho={result.config.rho} beta={result.config.budget_ratio}: "
                f"model {result.lambda_eff_model:.2f} vs sim "
                f"{result.lambda_eff_sim:.2f}"
            )

    def test_retries_amplify_the_attempt_stream(self, results):
        unbudgeted = results[0]
        assert unbudgeted.amplification_sim > 1.5
        assert unbudgeted.retries > 0

    def test_budget_caps_amplification(self, results):
        unbudgeted, budgeted = results
        assert budgeted.amplification_sim < unbudgeted.amplification_sim / 1.5
        assert budgeted.budget_denied > 0
        # The cap the bucket enforces: retries ≤ β·successes + slack.
        cfg = budgeted.config
        assert budgeted.retries <= cfg.budget_ratio * budgeted.accepted + 1

    def test_attempt_ledger_conserved(self, results, assert_conserved):
        for result in results:
            assert_conserved(result, context=f"rho={result.config.rho}")

    def test_deterministic_given_seed(self):
        cell = _CELLS[0].with_(messages=2000)
        first = run_resilience_cell(cell)
        second = run_resilience_cell(cell)
        assert first.to_metrics() == second.to_metrics()

    def test_classification_reported(self, results):
        assert {r.classification for r in results} == {"stable"}


class TestOperatingPoint:
    @pytest.mark.parametrize("family", list(ReplicationFamily))
    def test_a_cell_and_an_overload_run_share_the_operating_point(self, family):
        """One family, one model: the cell's copy of the mapping had lost
        its scaled-Bernoulli branch and built a binomial instead."""
        cell = ResilienceCellConfig(family=family)
        overload = OverloadExperimentConfig(family=family, rho=cell.rho)
        assert repr(cell.replication_model) == repr(overload.replication_model)
        assert family.value.replace("_", "") in repr(cell.replication_model).lower()
        assert cell.service_model.moments == overload.service_model.moments
        assert cell.arrival_rate == overload.arrival_rate
