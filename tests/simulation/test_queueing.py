"""Tests for the Lindley-recursion FIFO queue and its M/G/1 drivers."""

import math
from collections import deque

import numpy as np
import pytest

from repro.core import GeometricBatchSize, MG1Queue, Moments, mm1_mean_wait
from repro.simulation import (
    Deterministic,
    Engine,
    Exponential,
    MeasurementWindow,
    lindley_waits,
    simulate_gg1,
    simulate_mg1,
    simulate_mxg1,
)
from repro.simulation.queueing import _measure_fifo

REPLICAS = 32


def replicas(seed, run):
    """``run(rng)`` on ``REPLICAS`` independent streams spawned from ``seed``.

    One run's estimate has a standard deviation of 3-6 % here, as wide as
    the tolerances; the mean of 32 runs holds each tolerance to 5-10 of
    its own standard deviations, so the test checks the model, not the
    stream.
    """
    children = np.random.SeedSequence(seed).spawn(REPLICAS)
    return [run(np.random.default_rng(child)) for child in children]


def station_waits(arrivals, services):
    """Waits from an event-driven FIFO station replaying recorded draws.

    The mechanics of the event-heap station the kernel replaced: every
    arrival joins a FIFO line; when the server is free the head starts
    service, its wait is ``now - arrival``, and its completion is an
    event ``service`` seconds later.  Customers sharing an arrival time
    join in array order, as the members of one batch did.
    """
    engine = Engine()
    line = deque()
    waits = [math.nan] * len(arrivals)
    state = {"next": 0, "busy": False}

    def start_service():
        customer = line.popleft()
        waits[customer] = engine.now - arrivals[customer]
        state["busy"] = True
        engine.call_in(services[customer], complete_service)

    def complete_service():
        state["busy"] = False
        if line:
            start_service()

    def arrive():
        now = arrivals[state["next"]]
        while state["next"] < len(arrivals) and arrivals[state["next"]] == now:
            line.append(state["next"])
            state["next"] += 1
        if state["next"] < len(arrivals):
            engine.call_at(arrivals[state["next"]], arrive)
        if not state["busy"]:
            start_service()

    engine.call_at(arrivals[0], arrive)
    engine.run()
    return np.asarray(waits)


class TestKernelAgainstStation:
    """The kernel's waits equal the event-driven station's on the same draws."""

    def test_mm1_at_rho_09(self):
        rng = np.random.default_rng(2006)
        count = 100_000
        arrivals = np.cumsum(rng.exponential(1.0 / 0.9, count))
        services = rng.exponential(1.0, count)
        expected = station_waits(arrivals.tolist(), services.tolist())
        waits = lindley_waits(arrivals, services)
        assert waits.shape == (count,)
        assert np.max(np.abs(waits - expected)) <= 1e-9
        # A loaded queue, not a trivially idle one.
        assert 5.0 < waits.mean() < 15.0

    def test_mxg1_geometric_batches(self):
        rng = np.random.default_rng(1803)
        epochs = np.cumsum(rng.exponential(1.0 / 0.25, 10_000))
        arrivals = np.repeat(epochs, GeometricBatchSize(mean=3.0).sample(rng, epochs.size))
        services = rng.exponential(1.0, arrivals.size)
        expected = station_waits(arrivals.tolist(), services.tolist())
        waits = lindley_waits(arrivals, services)
        assert np.max(np.abs(waits - expected)) <= 1e-9
        assert np.count_nonzero(np.diff(arrivals) == 0) > 10_000


class TestKernelMechanics:
    def test_single_customer_no_wait(self):
        assert lindley_waits([1.0], [2.0]).tolist() == [0.0]

    def test_fifo_waiting_times_deterministic(self):
        # Service completions at 5, 10, 15; waits 0, 4, 8.
        assert lindley_waits([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]).tolist() == [0.0, 4.0, 8.0]

    def test_idle_server_resets_the_wait(self):
        assert lindley_waits([0.0, 1.0, 10.0], [3.0, 3.0, 1.0]).tolist() == [0.0, 2.0, 0.0]

    def test_batch_members_queue_behind_each_other(self):
        assert lindley_waits([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]).tolist() == [0.0, 1.0, 3.0]

    def test_empty_input(self):
        assert lindley_waits([], []).shape == (0,)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_invalid_service_time_raises(self, bad):
        with pytest.raises(ValueError):
            lindley_waits([0.0, 1.0], [1.0, bad])

    def test_unordered_arrivals_raise(self):
        with pytest.raises(ValueError):
            lindley_waits([1.0, 0.0], [1.0, 1.0])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            lindley_waits([0.0, 1.0], [1.0])


class TestMeasureFifo:
    def test_windowed_wait_recording(self):
        # Waits 0, 4, 0; only the arrival at 15 is inside [10, 20).
        result = _measure_fifo(
            [0.0, 1.0, 15.0], [5.0, 5.0, 5.0], MeasurementWindow(10.0, 20.0), 30.0
        )
        assert result.mean_wait == 0.0
        assert result.wait_probability == 0.0

    def test_delayed_fraction_excludes_zero_waits(self):
        result = _measure_fifo([0.0, 1.0], [3.0, 3.0], MeasurementWindow(0.0, 10.0), 10.0)
        assert result.mean_wait == 1.0
        assert result.wait_probability == 0.5

    def test_served_counts_completions_by_the_horizon(self):
        result = _measure_fifo(
            [0.0, 1.0, 2.0], [5.0, 5.0, 5.0], MeasurementWindow(0.0, 12.0), 12.0
        )
        assert result.served == 2

    def test_empty_window_is_nan(self):
        result = _measure_fifo([0.0], [1.0], MeasurementWindow(5.0, 10.0), 10.0)
        assert math.isnan(result.mean_wait)
        assert math.isnan(result.wait_quantile_99)
        assert result.wait_probability == 0.0


class TestDrawOrder:
    """The docstring's draw order is the seeded contract."""

    def test_mg1_replays_from_spawned_streams(self):
        horizon = 2_000.0
        result = simulate_mg1(0.8, Exponential(1.0), np.random.default_rng(5), horizon)
        arrival_rng, service_rng = np.random.default_rng(5).spawn(2)
        gaps = arrival_rng.exponential(1.0 / 0.8, int(1.05 * horizon * 0.8) + 64)
        assert gaps.sum() > horizon
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < horizon]
        services = service_rng.exponential(1.0, arrivals.size)
        assert result == _measure_fifo(
            arrivals, services, MeasurementWindow(200.0, 1_800.0), horizon
        )

    def test_mxg1_draws_sizes_after_epochs(self):
        law = GeometricBatchSize(mean=3.0)
        horizon = 2_000.0
        result = simulate_mxg1(0.2, law, Exponential(1.0), np.random.default_rng(9), horizon)
        arrival_rng, service_rng = np.random.default_rng(9).spawn(2)
        epochs = np.cumsum(arrival_rng.exponential(5.0, int(1.05 * horizon * 0.2) + 64))
        epochs = epochs[epochs < horizon]
        arrivals = np.repeat(epochs, law.sample(arrival_rng, epochs.size))
        services = service_rng.exponential(1.0, arrivals.size)
        assert result == _measure_fifo(
            arrivals, services, MeasurementWindow(200.0, 1_800.0), horizon
        )

    def test_a_service_time_model_is_a_sampler(self):
        """Anything with ``sample_many`` serves; no per-draw callable."""
        from repro.core import CORRELATION_ID_COSTS, DeterministicReplication, ServiceTimeModel

        model = ServiceTimeModel(CORRELATION_ID_COSTS, 5, DeterministicReplication(2))
        result = simulate_mg1(0.5 / model.mean, model, np.random.default_rng(1), 5_000 * model.mean)
        assert result.served > 2_000


class TestMG1Validation:
    """Simulated waiting times must match Pollaczek-Khinchine (Eq. 4)."""

    def test_mm1_mean_wait(self):
        results = replicas(
            404,
            lambda rng: simulate_mg1(
                arrival_rate=0.7, service=Exponential(rate=1.0), rng=rng, horizon=100_000.0
            ),
        )
        mean_wait = np.mean([r.mean_wait for r in results])
        assert mean_wait == pytest.approx(mm1_mean_wait(0.7, 1.0), rel=0.05)
        wait_probability = np.mean([r.wait_probability for r in results])
        assert wait_probability == pytest.approx(0.7, abs=0.02)

    def test_md1_mean_wait(self):
        """Deterministic service: E[W] = rho/(2(1-rho)) * E[B]."""
        results = replicas(
            11,
            lambda rng: simulate_mg1(
                arrival_rate=0.8, service=Deterministic(1.0), rng=rng, horizon=100_000.0
            ),
        )
        expected = 0.8 / (2 * 0.2)
        assert np.mean([r.mean_wait for r in results]) == pytest.approx(expected, rel=0.05)

    def test_quantiles_match_gamma_approximation(self):
        results = replicas(
            7,
            lambda rng: simulate_mg1(
                arrival_rate=0.8, service=Exponential(rate=1.0), rng=rng, horizon=200_000.0
            ),
        )
        queue = MG1Queue(0.8, Moments(1.0, 2.0, 6.0))
        q99 = np.mean([r.wait_quantile_99 for r in results])
        assert q99 == pytest.approx(queue.wait_quantile(0.99), rel=0.05)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_mg1(0.0, Exponential(1.0), rng, 10.0)
        with pytest.raises(ValueError):
            simulate_mg1(0.5, Exponential(1.0), rng, 0.0)
        with pytest.raises(ValueError):
            simulate_mg1(0.5, Exponential(1.0), rng, 10.0, warmup_fraction=0.5)
        with pytest.raises(ValueError):
            simulate_gg1(Deterministic(0.0), Exponential(1.0), rng, 10.0)
