"""Tests for the replication-grade distributions (Eqs. 11-18)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BinomialReplication,
    DeterministicReplication,
    GeneralDiscreteReplication,
    ScaledBernoulliReplication,
)

RNG = np.random.default_rng(12345)


def empirical_moments(model, size=200_000):
    samples = model.sample_many(np.random.default_rng(7), size).astype(float)
    return samples.mean(), (samples**2).mean(), (samples**3).mean()


class TestDeterministic:
    def test_moments_are_powers(self):
        m = DeterministicReplication(5).moments
        assert (m.m1, m.m2, m.m3) == (5.0, 25.0, 125.0)

    def test_zero_grade(self):
        m = DeterministicReplication(0).moments
        assert (m.m1, m.m2, m.m3) == (0.0, 0.0, 0.0)

    def test_sampling_constant(self):
        model = DeterministicReplication(7)
        assert set(model.sample_many(RNG, 100).tolist()) == {7}

    def test_cvar_zero(self):
        assert DeterministicReplication(9).cvar == 0.0

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            DeterministicReplication(-1)
        with pytest.raises(ValueError):
            DeterministicReplication(1.5)  # type: ignore[arg-type]


class TestScaledBernoulli:
    def test_exact_moments(self):
        # E[R^k] = p * n^k for the all-or-nothing model.
        model = ScaledBernoulliReplication(n_fltr=10, p_match=0.3)
        m = model.moments
        assert m.m1 == pytest.approx(3.0)
        assert m.m2 == pytest.approx(0.3 * 100)
        assert m.m3 == pytest.approx(0.3 * 1000)

    def test_paper_inversion_identities(self):
        # n_fltr = E[R^2]/E[R], p_match = E[R]^2/E[R^2] (Section IV-B.2b).
        model = ScaledBernoulliReplication(n_fltr=20, p_match=0.4)
        m = model.moments
        assert m.m2 / m.m1 == pytest.approx(20)
        assert m.m1**2 / m.m2 == pytest.approx(0.4)

    def test_third_moment_identity_eq15(self):
        model = ScaledBernoulliReplication(n_fltr=8, p_match=0.25)
        m = model.moments
        assert m.m3 == pytest.approx(m.m2**2 / m.m1)

    def test_from_moments_roundtrip(self):
        original = ScaledBernoulliReplication(n_fltr=12, p_match=0.65)
        m = original.moments
        rebuilt = ScaledBernoulliReplication.from_moments(m.m1, m.m2)
        assert rebuilt.n_fltr == 12
        assert rebuilt.p_match == pytest.approx(0.65)

    def test_from_moments_rejects_invalid(self):
        with pytest.raises(ValueError):
            ScaledBernoulliReplication.from_moments(0.0, 1.0)
        with pytest.raises(ValueError, match="non-integer"):
            ScaledBernoulliReplication.from_moments(1.0, 2.5)

    def test_sampling_support(self):
        model = ScaledBernoulliReplication(n_fltr=6, p_match=0.5)
        values = set(model.sample_many(RNG, 1000).tolist())
        assert values == {0, 6}

    def test_sampling_matches_moments(self):
        model = ScaledBernoulliReplication(n_fltr=10, p_match=0.3)
        m1, m2, m3 = empirical_moments(model)
        assert m1 == pytest.approx(model.moments.m1, rel=0.02)
        assert m2 == pytest.approx(model.moments.m2, rel=0.02)
        assert m3 == pytest.approx(model.moments.m3, rel=0.03)

    def test_degenerate_probabilities(self):
        assert ScaledBernoulliReplication(5, 0.0).moments.m1 == 0.0
        always = ScaledBernoulliReplication(5, 1.0)
        assert always.moments.variance == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaledBernoulliReplication(-1, 0.5)
        with pytest.raises(ValueError):
            ScaledBernoulliReplication(5, 1.5)


class TestBinomial:
    def test_exact_moments_match_numpy_pmf(self):
        model = BinomialReplication(n_fltr=15, p_match=0.4)
        ks = np.arange(16)
        pmf = np.array([model.pmf(int(k)) for k in ks])
        assert pmf.sum() == pytest.approx(1.0)
        for order, analytic in ((1, model.moments.m1), (2, model.moments.m2), (3, model.moments.m3)):
            assert analytic == pytest.approx(float((pmf * ks**order).sum()))

    def test_mean_and_variance(self):
        model = BinomialReplication(n_fltr=30, p_match=0.2)
        assert model.moments.mean == pytest.approx(6.0)
        assert model.moments.variance == pytest.approx(30 * 0.2 * 0.8)

    def test_sampling_matches_moments(self):
        model = BinomialReplication(n_fltr=25, p_match=0.35)
        m1, m2, m3 = empirical_moments(model)
        assert m1 == pytest.approx(model.moments.m1, rel=0.01)
        assert m2 == pytest.approx(model.moments.m2, rel=0.01)
        assert m3 == pytest.approx(model.moments.m3, rel=0.02)

    def test_from_mean(self):
        model = BinomialReplication.from_mean(n_fltr=50, mean=5.0)
        assert model.p_match == pytest.approx(0.1)
        with pytest.raises(ValueError):
            BinomialReplication.from_mean(n_fltr=4, mean=5.0)

    def test_pmf_outside_support(self):
        model = BinomialReplication(5, 0.5)
        assert model.pmf(-1) == 0.0
        assert model.pmf(6) == 0.0

    def test_lower_variability_than_bernoulli(self):
        """The binomial's independent matching averages out (Fig. 9 vs 8)."""
        n, p = 50, 0.3
        assert (
            BinomialReplication(n, p).moments.cvar
            < ScaledBernoulliReplication(n, p).moments.cvar
        )

    @given(
        n=st.integers(min_value=1, max_value=200),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_property_moment_consistency(self, n, p):
        m = BinomialReplication(n, p).moments
        assert m.m2 >= m.m1**2 * (1 - 1e-12)
        assert m.m3 >= 0


class TestGeneralDiscrete:
    def test_moments(self):
        model = GeneralDiscreteReplication({0: 0.5, 2: 0.25, 10: 0.25})
        m = model.moments
        assert m.m1 == pytest.approx(0.5 * 0 + 0.25 * 2 + 0.25 * 10)
        assert m.m2 == pytest.approx(0.25 * 4 + 0.25 * 100)
        assert m.m3 == pytest.approx(0.25 * 8 + 0.25 * 1000)

    def test_pmf_and_sampling(self):
        model = GeneralDiscreteReplication({1: 0.7, 4: 0.3})
        assert model.pmf(1) == pytest.approx(0.7)
        assert model.pmf(2) == 0.0
        samples = model.sample_many(RNG, 20_000)
        assert set(samples.tolist()) <= {1, 4}
        assert samples.mean() == pytest.approx(1.9, rel=0.05)

    def test_accepts_integral_float_grades(self):
        model = GeneralDiscreteReplication({3.0: 0.5, 4: 0.5})
        assert model.pmf(3) == pytest.approx(0.5)
        assert model.pmf(4) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneralDiscreteReplication({})
        with pytest.raises(ValueError, match="sum to 1"):
            GeneralDiscreteReplication({1: 0.5})
        with pytest.raises(ValueError):
            GeneralDiscreteReplication({-1: 1.0})
