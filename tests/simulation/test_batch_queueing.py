"""The M^X/G/1 discrete-event testbed against the closed form."""

import pytest

from repro.core import DeterministicBatchSize, GeometricBatchSize, MXG1Queue, Moments
from repro.simulation import Exponential, simulate_mxg1
from repro.rng import make_generator

EXP_SERVICE = Moments(1.0, 2.0, 6.0)


class TestValidation:
    def test_bad_arguments_rejected(self):
        rng = make_generator(0)
        law = DeterministicBatchSize(2)
        with pytest.raises(ValueError):
            simulate_mxg1(0.0, law, Exponential(1.0), rng, 10.0)
        with pytest.raises(ValueError):
            simulate_mxg1(0.1, law, Exponential(1.0), rng, 0.0)
        with pytest.raises(ValueError):
            simulate_mxg1(
                0.1, law, Exponential(1.0), rng, 10.0, warmup_fraction=0.75
            )


class TestAgainstModel:
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_deterministic_batches_near_closed_form(self, batch_size):
        law = DeterministicBatchSize(batch_size)
        model = MXG1Queue.from_utilization(0.5, law, EXP_SERVICE)
        waits = []
        for seed in (3, 17):
            rng = make_generator(seed)
            result = simulate_mxg1(
                model.batch_rate, law, Exponential(1.0), rng, 30_000.0
            )
            waits.append(result.mean_wait)
        sim = sum(waits) / len(waits)
        assert sim == pytest.approx(model.mean_wait, rel=0.15)

    def test_geometric_batches_near_closed_form(self):
        law = GeometricBatchSize(mean=3.0)
        model = MXG1Queue.from_utilization(0.6, law, EXP_SERVICE)
        waits = []
        for seed in (3, 17):
            rng = make_generator(seed)
            result = simulate_mxg1(
                model.batch_rate, law, Exponential(1.0), rng, 30_000.0
            )
            waits.append(result.mean_wait)
        sim = sum(waits) / len(waits)
        assert sim == pytest.approx(model.mean_wait, rel=0.2)

    def test_batching_hurts_waits_in_the_testbed_too(self):
        """The DES reproduces the model's monotone batching penalty."""
        rng_a, rng_b = make_generator(5), make_generator(5)
        single = MXG1Queue.from_utilization(
            0.7, DeterministicBatchSize(1), EXP_SERVICE
        )
        batched = MXG1Queue.from_utilization(
            0.7, DeterministicBatchSize(16), EXP_SERVICE
        )
        wait_single = simulate_mxg1(
            single.batch_rate,
            DeterministicBatchSize(1),
            Exponential(1.0),
            rng_a,
            20_000.0,
        ).mean_wait
        wait_batched = simulate_mxg1(
            batched.batch_rate,
            DeterministicBatchSize(16),
            Exponential(1.0),
            rng_b,
            20_000.0,
        ).mean_wait
        assert wait_batched > 2.0 * wait_single
