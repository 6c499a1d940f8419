"""Token-bucket retry budget semantics (stdlib-only)."""

import pytest

from repro.resilience import RetryBudget


class TestValidation:
    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            RetryBudget(ratio=-0.1)

    def test_negative_min_rate_rejected(self):
        with pytest.raises(ValueError, match="min_rate"):
            RetryBudget(min_rate=-1.0)

    def test_nonpositive_burst_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            RetryBudget(burst=0.0)


class TestBucket:
    def test_empty_bucket_denies(self):
        budget = RetryBudget(ratio=0.1)
        assert not budget.allow_retry(0.0)
        assert budget.denied == 1
        assert budget.granted == 0

    def test_successes_fund_retries(self):
        budget = RetryBudget(ratio=0.1)
        for i in range(10):
            budget.record_success(float(i))
        assert budget.tokens == pytest.approx(1.0)
        assert budget.allow_retry(10.0)
        assert budget.granted == 1
        assert not budget.allow_retry(10.0)

    def test_min_rate_accrues_with_time(self):
        budget = RetryBudget(ratio=0.0, min_rate=0.5)
        assert not budget.allow_retry(0.0)
        assert budget.allow_retry(2.0)  # 0.5/s · 2s = 1 token
        assert not budget.allow_retry(2.0)

    def test_burst_caps_the_bucket(self):
        budget = RetryBudget(ratio=1.0, burst=3.0)
        for i in range(100):
            budget.record_success(0.0)
        grants = sum(1 for _ in range(10) if budget.allow_retry(0.0))
        assert grants == 3

    def test_initial_tokens_clamped_to_burst(self):
        budget = RetryBudget(burst=2.0, initial=50.0)
        assert budget.tokens == pytest.approx(2.0)

    def test_steady_state_cap(self):
        """Granted retries never exceed β·successes + min_rate·elapsed."""
        budget = RetryBudget(ratio=0.2, min_rate=0.1, burst=5.0)
        successes = 0
        now = 0.0
        for step in range(1, 2001):
            now = step * 0.01
            if step % 3 == 0:
                budget.record_success(now)
                successes += 1
            budget.allow_retry(now)  # constant retry demand
        assert budget.granted <= budget.ratio * successes + budget.min_rate * now + 1

    def test_snapshot_and_repr(self):
        budget = RetryBudget(ratio=0.5)
        budget.record_success(1.0)
        budget.allow_retry(1.0)
        snap = budget.snapshot()
        assert snap["retry_budget_deposited"] == pytest.approx(0.5)
        assert snap["retry_budget_denied"] == 1
        assert "RetryBudget" in repr(budget)

    def test_snapshot_counts_grants_and_denials(self):
        budget = RetryBudget(ratio=0.5, initial=2.0)
        budget.allow_retry(1.0)
        budget.allow_retry(1.0)
        budget.allow_retry(1.0)  # empty — denied
        snap = budget.snapshot()
        assert snap["retry_budget_granted"] == 2
        assert snap["retry_budget_denied"] == 1
        assert snap["retry_budget_deposited"] == 0.0
