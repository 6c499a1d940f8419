"""The exact M/G/1/K model against closed forms and limit regimes."""

import math

import numpy as np
import pytest

from repro.core import CORRELATION_ID_COSTS, DeterministicReplication, ServiceTimeModel
from repro.core.mg1 import MG1Queue
from repro.overload.mg1k import MG1KQueue

DETERMINISTIC = ((1.0, 1.0),)


def mm1k_occupancy(rho: float, k: int) -> np.ndarray:
    """Closed-form M/M/1/K system-size distribution."""
    weights = np.array([rho**n for n in range(k + 1)])
    return weights / weights.sum()


def discretized_exponential(mean: float, points: int = 40001) -> tuple:
    """A fine discrete grid approximating Exp(mean) by equal-mass quantiles."""
    probs = np.full(points, 1.0 / points)
    quantiles = (np.arange(points) + 0.5) / points
    times = -mean * np.log1p(-quantiles)
    return tuple(zip(times.tolist(), probs.tolist()))


class TestClosedForms:
    def test_k1_erlang_b_loss(self):
        """K=1 is Erlang-B with one server: loss = rho / (1 + rho)."""
        for rho in (0.3, 0.7, 1.0, 1.8):
            queue = MG1KQueue(arrival_rate=rho, capacity=1, service=DETERMINISTIC)
            assert queue.loss_probability == pytest.approx(rho / (1 + rho), rel=1e-9)
            # No waiting room at K=1.
            assert queue.mean_wait == pytest.approx(0.0, abs=1e-12)

    def test_k1_loss_insensitive_to_service_distribution(self):
        """Erlang-B is insensitive: only E[B] matters at K=1."""
        two_point = ((0.5, 0.5), (1.5, 0.5))  # mean 1.0, higher variance
        det = MG1KQueue(arrival_rate=0.8, capacity=1, service=DETERMINISTIC)
        var = MG1KQueue(arrival_rate=0.8, capacity=1, service=two_point)
        assert var.loss_probability == pytest.approx(det.loss_probability, rel=1e-9)

    @pytest.mark.parametrize("rho", [0.5, 0.9, 1.2])
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_mm1k_closed_form(self, rho, k):
        """Exponential service recovers the textbook M/M/1/K distribution."""
        queue = MG1KQueue(
            arrival_rate=rho, capacity=k, service=discretized_exponential(1.0)
        )
        expected = mm1k_occupancy(rho, k)
        assert np.allclose(queue.occupancy, expected, atol=5e-5)
        assert queue.loss_probability == pytest.approx(expected[k], abs=5e-5)

    def test_large_k_converges_to_pollaczek_khinchine(self):
        """As K grows at rho < 1 the conditional wait approaches M/G/1-infinity."""
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=100, replication=DeterministicReplication(3)
        )
        infinite = MG1Queue.from_utilization(0.8, model.moments)
        finite = MG1KQueue.from_offered_load(0.8, model, capacity=400)
        assert finite.loss_probability < 1e-12
        assert finite.mean_wait == pytest.approx(infinite.mean_wait, rel=1e-6)


class TestOverloadRegime:
    def test_finite_above_saturation(self):
        """At rho > 1 everything stays finite; loss absorbs the excess."""
        queue = MG1KQueue(arrival_rate=1.3, capacity=5, service=DETERMINISTIC)
        assert 0.2 < queue.loss_probability < 0.5
        assert queue.mean_wait < 5.0  # bounded by (K-1) * E[B]
        assert queue.effective_throughput < 1.0  # can't exceed the service rate
        # Carried load = lambda_eff * E[B] identically.
        assert queue.utilization == pytest.approx(
            queue.effective_arrival_rate * queue.mean_service_time, rel=1e-9
        )

    def test_loss_monotone_in_offered_load(self):
        losses = [
            MG1KQueue(arrival_rate=rho, capacity=5, service=DETERMINISTIC).loss_probability
            for rho in (0.5, 0.8, 1.0, 1.3, 2.0)
        ]
        assert losses == sorted(losses)
        assert losses[-1] > 0.4

    def test_loss_decreases_with_capacity(self):
        losses = [
            MG1KQueue(arrival_rate=0.9, capacity=k, service=DETERMINISTIC).loss_probability
            for k in (1, 2, 5, 10, 20)
        ]
        assert losses == sorted(losses, reverse=True)

    def test_conditional_wait_bounded_by_waiting_room(self):
        """An accepted message waits for at most K-1 full services."""
        for rho in (0.9, 1.5, 3.0):
            queue = MG1KQueue(arrival_rate=rho, capacity=6, service=DETERMINISTIC)
            assert queue.mean_wait <= (queue.capacity - 1) * queue.mean_service_time


class TestBasicProperties:
    def test_occupancy_is_a_distribution(self):
        queue = MG1KQueue(
            arrival_rate=0.9, capacity=5, service=((0.5, 0.25), (1.0, 0.5), (2.0, 0.25))
        )
        occupancy = queue.occupancy
        assert occupancy.shape == (6,)
        assert np.all(occupancy >= 0)
        assert occupancy.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_arrivals(self):
        queue = MG1KQueue(arrival_rate=0.0, capacity=3, service=DETERMINISTIC)
        assert queue.loss_probability == 0.0
        assert queue.occupancy[0] == 1.0
        assert queue.mean_wait == 0.0

    def test_describe_keys(self):
        described = MG1KQueue(
            arrival_rate=0.9, capacity=5, service=DETERMINISTIC
        ).describe()
        assert described["offered_load"] == pytest.approx(0.9)
        assert 0 < described["loss_probability"] < 1
        assert described["effective_throughput"] < 0.9

    def test_little_law_on_the_system(self):
        queue = MG1KQueue(arrival_rate=1.1, capacity=4, service=DETERMINISTIC)
        assert queue.mean_system_size == pytest.approx(
            queue.effective_arrival_rate * queue.mean_sojourn, rel=1e-9
        )

    def test_from_service_model_matches_manual(self):
        model = ServiceTimeModel(
            CORRELATION_ID_COSTS, n_fltr=10, replication=DeterministicReplication(2)
        )
        via_model = MG1KQueue.from_service_model(100.0, model, capacity=4)
        manual = MG1KQueue(
            arrival_rate=100.0, capacity=4, service=tuple(model.service_distribution())
        )
        assert via_model.loss_probability == pytest.approx(
            manual.loss_probability, rel=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": -1.0, "capacity": 5, "service": DETERMINISTIC},
            {"arrival_rate": 1.0, "capacity": 0, "service": DETERMINISTIC},
            {"arrival_rate": 1.0, "capacity": 5, "service": ()},
            {"arrival_rate": 1.0, "capacity": 5, "service": ((1.0, 0.5),)},
            {"arrival_rate": 1.0, "capacity": 5, "service": ((0.0, 1.0),)},
            {"arrival_rate": 1.0, "capacity": 5, "service": ((1.0, -0.5), (1.0, 1.5))},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MG1KQueue(**kwargs)

    def test_tail_mass_absorbed_not_lost(self):
        """Arrival probabilities beyond the buffer fold into the last column."""
        # Very high rate: nearly every service sees > K arrivals.
        queue = MG1KQueue(arrival_rate=50.0, capacity=3, service=DETERMINISTIC)
        assert queue.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
        assert queue.loss_probability > 0.9
        assert math.isfinite(queue.mean_wait)
