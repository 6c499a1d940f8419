"""The M^X/G/1 batch-arrival waiting-time model.

Anchors: the classical M^X/M/1 queue-length closed form
Lq = rho^2/(1-rho) + rho (E[X^2]-E[X]) / (2 E[X] (1-rho)), the exact
degeneration to the paper's Eqs. 4-5 at X == 1, and the batch-size
laws' moments against brute-force series sums.
"""

import math

import pytest

from repro.core import (
    DeterministicBatchSize,
    GeometricBatchSize,
    Moments,
    MXG1Queue,
)

EXP_SERVICE = Moments(1.0, 2.0, 6.0)


class TestBatchSizeLaws:
    def test_deterministic_moments(self):
        law = DeterministicBatchSize(5)
        assert (law.m1, law.m2, law.m3) == (5.0, 25.0, 125.0)

    def test_geometric_moments_match_series(self):
        law = GeometricBatchSize(mean=3.0)
        p = law.p
        m1 = sum(k * (1 - p) ** (k - 1) * p for k in range(1, 4000))
        m2 = sum(k**2 * (1 - p) ** (k - 1) * p for k in range(1, 4000))
        m3 = sum(k**3 * (1 - p) ** (k - 1) * p for k in range(1, 4000))
        assert math.isclose(law.m1, m1, rel_tol=1e-9)
        assert math.isclose(law.m2, m2, rel_tol=1e-9)
        assert math.isclose(law.m3, m3, rel_tol=1e-9)

    def test_geometric_mean_one_is_deterministic_one(self):
        law = GeometricBatchSize(mean=1.0)
        assert (law.m1, law.m2, law.m3) == (1.0, 1.0, 1.0)

    def test_sampling_stays_in_support(self):
        from repro.rng import make_generator

        rng = make_generator(7)
        sizes = GeometricBatchSize(mean=4.0).sample(rng, 2000)
        assert len(sizes) == 2000
        assert min(sizes) >= 1
        assert abs(sum(sizes) / len(sizes) - 4.0) < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicBatchSize(0)
        with pytest.raises(ValueError):
            GeometricBatchSize(mean=0.5)


class TestMXG1Model:
    @pytest.mark.parametrize("rho", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize(
        "service",
        [EXP_SERVICE, Moments(1.0, 1.0, 1.0), Moments(2.0, 8.0, 48.0)],
        ids=["exp", "det", "exp-mean2"],
    )
    def test_degenerates_to_pollaczek_khinchine(self, rho, service):
        """At X == 1 Eqs. 4-5 must come back exactly, not approximately."""
        model = MXG1Queue.from_utilization(rho, DeterministicBatchSize(1), service)
        lam = model.message_rate
        eq4 = lam * service.m2 / (2.0 * (1.0 - rho))
        eq5 = 2.0 * eq4**2 + lam * service.m3 / (3.0 * (1.0 - rho))
        assert abs(model.mean_wait - eq4) <= 1e-12 * max(1.0, eq4)
        assert abs(model.wait_moment2 - eq5) <= 1e-12 * max(1.0, eq5)
        mg1 = model.as_mg1()
        assert abs(model.mean_wait - mg1.mean_wait) <= 1e-12 * max(1.0, eq4)
        assert abs(model.wait_moment2 - mg1.wait_moment2) <= 1e-12 * max(1.0, eq5)
        assert model.batching_penalty == pytest.approx(1.0)

    @pytest.mark.parametrize("mean_batch", [1.5, 4.0, 16.0])
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_matches_mxm1_closed_form(self, mean_batch, rho):
        """Exponential service: E[W] = Lq / lambda with the textbook Lq."""
        law = GeometricBatchSize(mean=mean_batch)
        model = MXG1Queue.from_utilization(rho, law, EXP_SERVICE)
        lam = model.message_rate
        lq = rho**2 / (1 - rho) + rho * (law.m2 - law.m1) / (2 * law.m1 * (1 - rho))
        assert model.mean_wait == pytest.approx(lq / lam, rel=1e-12)

    def test_wait_grows_with_batch_size_at_fixed_message_rate(self):
        waits = [
            MXG1Queue.from_utilization(
                0.7, DeterministicBatchSize(b), EXP_SERVICE
            ).mean_wait
            for b in (1, 2, 4, 8, 16)
        ]
        assert waits == sorted(waits)
        penalties = [
            MXG1Queue.from_utilization(
                0.7, DeterministicBatchSize(b), EXP_SERVICE
            ).batching_penalty
            for b in (1, 4, 16)
        ]
        assert penalties[0] == pytest.approx(1.0)
        assert penalties == sorted(penalties)

    def test_from_utilization_roundtrip(self):
        law = GeometricBatchSize(mean=4.0)
        model = MXG1Queue.from_utilization(0.8, law, EXP_SERVICE)
        assert model.utilization == pytest.approx(0.8)
        assert model.message_rate == pytest.approx(model.batch_rate * law.m1)

    def test_wait_variance_nonnegative(self):
        for b in (1, 3, 9):
            model = MXG1Queue.from_utilization(
                0.85, GeometricBatchSize(mean=float(b)), EXP_SERVICE
            )
            assert model.wait_moment2 >= model.mean_wait**2

    def test_unstable_load_rejected(self):
        with pytest.raises(ValueError):
            MXG1Queue.from_utilization(1.0, DeterministicBatchSize(2), EXP_SERVICE)
        with pytest.raises(ValueError):
            MXG1Queue(
                batch_rate=0.3, batch=DeterministicBatchSize(4), service=EXP_SERVICE
            )

    def test_describe_is_json_shaped(self):
        model = MXG1Queue.from_utilization(
            0.7, GeometricBatchSize(mean=2.0), EXP_SERVICE
        )
        payload = model.describe()
        assert payload["utilization"] == pytest.approx(0.7)
        assert payload["batch"]["law"] == "geometric"
