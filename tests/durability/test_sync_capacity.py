"""The t_sync/b durability cost folded into the Eq. 1 / Eq. 2 model."""

import pytest

from repro.core import (
    APP_PROPERTY_COSTS,
    CORRELATION_ID_COSTS,
    BinomialReplication,
    ServiceTimeModel,
    server_capacity,
)
from repro.durability import SyncPolicy
from repro.durability.capacity import amortized_sync_overhead, durability_capacity_sweep

T_SYNC = 2e-4


class TestAmortizedOverhead:
    def test_always_pays_full_price(self):
        assert amortized_sync_overhead(T_SYNC, SyncPolicy.always()) == T_SYNC

    def test_group_commit_divides_by_batch(self):
        policy = SyncPolicy.group_commit(batch=8)
        assert amortized_sync_overhead(T_SYNC, policy) == pytest.approx(T_SYNC / 8)

    def test_never_is_free(self):
        assert amortized_sync_overhead(T_SYNC, SyncPolicy.never()) == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            amortized_sync_overhead(-1e-4, SyncPolicy.always())


class TestServiceTimeWiring:
    def test_sync_overhead_enters_the_deterministic_part(self):
        base = ServiceTimeModel(
            CORRELATION_ID_COSTS, 500, BinomialReplication(500, 3 / 500)
        )
        synced = base.with_sync_overhead(T_SYNC)
        assert synced.deterministic_part == pytest.approx(
            base.deterministic_part + T_SYNC
        )
        assert synced.mean == pytest.approx(base.mean + T_SYNC)

    def test_default_is_exactly_the_paper_model(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, 500, BinomialReplication(500, 3 / 500)
        )
        assert model.sync_overhead == 0.0

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(
                CORRELATION_ID_COSTS,
                500,
                BinomialReplication(500, 3 / 500),
                sync_overhead=-1e-6,
            )


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return durability_capacity_sweep(
            CORRELATION_ID_COSTS, 500, 3.0, t_sync=T_SYNC
        )

    def test_capacity_monotone_in_batch(self, sweep):
        lambdas = [p.lambda_max for p in sweep]
        assert lambdas == sorted(lambdas)

    def test_never_recovers_the_paper_capacity_exactly(self, sweep):
        baseline = server_capacity(CORRELATION_ID_COSTS, 500, 3.0, rho=0.9)
        never = next(p for p in sweep if p.policy == "never")
        assert never.lambda_max == pytest.approx(baseline, rel=1e-12)
        assert never.capacity_fraction == pytest.approx(1.0)

    def test_always_costs_the_most(self, sweep):
        always = next(p for p in sweep if p.policy == "always")
        assert always.lambda_max == min(p.lambda_max for p in sweep)
        assert always.capacity_fraction < 1.0

    def test_app_property_filters_also_sweep(self):
        rows = durability_capacity_sweep(
            APP_PROPERTY_COSTS, 100, 2.0, t_sync=T_SYNC, batches=(1, 4)
        )
        assert [p.policy for p in rows] == ["always", "group_commit(batch=4)", "never"]
