"""Tests for the service-time model (Eqs. 1, 7-10)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    APP_PROPERTY_COSTS,
    CORRELATION_ID_COSTS,
    BinomialReplication,
    DeterministicReplication,
    Moments,
    ScaledBernoulliReplication,
    ServiceTimeModel,
)


class TestEquationOne:
    def test_mean_formula(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=100, replication=DeterministicReplication(10)
        )
        expected = 8.52e-7 + 100 * 7.02e-6 + 10 * 1.70e-5
        assert model.mean == pytest.approx(expected)

    def test_deterministic_part(self):
        model = ServiceTimeModel(
            APP_PROPERTY_COSTS, n_fltr=50, replication=DeterministicReplication(0)
        )
        assert model.deterministic_part == pytest.approx(4.10e-6 + 50 * 1.46e-5)
        assert model.mean == pytest.approx(model.deterministic_part)

    def test_zero_filters(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=0, replication=DeterministicReplication(1)
        )
        assert model.mean == pytest.approx(8.52e-7 + 1.70e-5)

    def test_deterministic_replication_zero_cvar(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=20, replication=DeterministicReplication(5)
        )
        assert model.cvar == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_filters(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(CORRELATION_ID_COSTS, -1, DeterministicReplication(1))


class TestMomentsVsSampling:
    @pytest.mark.parametrize(
        "replication",
        [
            DeterministicReplication(4),
            ScaledBernoulliReplication(10, 0.3),
            BinomialReplication(10, 0.3),
        ],
        ids=["deterministic", "bernoulli", "binomial"],
    )
    def test_analytic_moments_match_empirical(self, replication):
        model = ServiceTimeModel(CORRELATION_ID_COSTS, n_fltr=10, replication=replication)
        samples = model.sample_many(np.random.default_rng(3), 100_000)
        assert samples.mean() == pytest.approx(model.moments.m1, rel=0.01)
        assert (samples**2).mean() == pytest.approx(model.moments.m2, rel=0.02)
        assert (samples**3).mean() == pytest.approx(model.moments.m3, rel=0.03)

    def test_single_sample_structure(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=5, replication=DeterministicReplication(2)
        )
        value = model.sample(np.random.default_rng(0))
        assert value == pytest.approx(model.deterministic_part + 2 * 1.70e-5)

    @given(
        n=st.integers(min_value=0, max_value=100),
        p=st.floats(min_value=0.01, max_value=0.99),
        size=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=60)
    def test_property_model_moments_always_consistent(self, n, p, size):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n, BinomialReplication(size, p)
        )
        m = model.moments
        assert m.m1 > 0
        assert m.m2 >= m.m1**2 * (1 - 1e-12)
        assert isinstance(m, Moments)


class TestWithMeanReplication:
    def test_integer_mean_uses_deterministic(self):
        model = ServiceTimeModel.with_mean_replication(CORRELATION_ID_COSTS, 10, 3.0)
        assert isinstance(model.replication, DeterministicReplication)
        assert model.replication.mean == 3.0

    def test_fractional_mean_uses_two_point(self):
        model = ServiceTimeModel.with_mean_replication(CORRELATION_ID_COSTS, 10, 2.5)
        assert model.replication.mean == pytest.approx(2.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ServiceTimeModel.with_mean_replication(CORRELATION_ID_COSTS, 10, -1.0)


class TestReplicationOverhead:
    """t_ship/b joins the deterministic part of Eq. 1 like the fsync cost."""

    def test_overhead_shifts_the_deterministic_part(self):
        base = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=10, replication=DeterministicReplication(2)
        )
        shipped = ServiceTimeModel(
            CORRELATION_ID_COSTS,
            n_fltr=10,
            replication=DeterministicReplication(2),
            replication_overhead=5e-6,
        )
        assert shipped.deterministic_part == pytest.approx(
            base.deterministic_part + 5e-6
        )
        assert shipped.mean == pytest.approx(base.mean + 5e-6)

    def test_amortized_ship_overhead_matches_manual_division(self):
        from repro.replication import amortized_ship_overhead

        assert amortized_ship_overhead(8e-5, 16) == pytest.approx(5e-6)

    def test_overhead_stacks_with_sync_overhead(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS,
            n_fltr=0,
            replication=DeterministicReplication(0),
            sync_overhead=2e-6,
            replication_overhead=3e-6,
        )
        assert model.deterministic_part == pytest.approx(
            CORRELATION_ID_COSTS.t_rcv + 5e-6
        )

    def test_negative_or_nan_overhead_rejected(self):
        for bad in (-1e-9, float("nan")):
            with pytest.raises(ValueError):
                ServiceTimeModel(
                    CORRELATION_ID_COSTS,
                    n_fltr=0,
                    replication=DeterministicReplication(0),
                    replication_overhead=bad,
                )
