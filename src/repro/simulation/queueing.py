"""Single-server FIFO queueing station (G/G/1) in virtual time.

The paper models the JMS server as an M/G/1-∞ queue (Section IV-B.1,
Fig. 7).  :class:`QueueingStation` simulates that queue directly so the
closed-form Pollaczek–Khinchine results of :mod:`repro.core.mg1` can be
cross-validated: feed it exponential inter-arrival times and any service
distribution, then compare the recorded waiting-time sample moments,
quantiles and CCDF against the analytic predictions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from .distributions import BatchSampler, Distribution, Exponential
from .engine import Engine
from .metrics import BusyTracker, MeasurementWindow, SampleStats, TimeWeightedStat

__all__ = ["QueueingStation", "QueueingResults", "simulate_mg1", "simulate_gg1"]

if TYPE_CHECKING:
    import numpy as np

ServiceSampler = Callable[["np.random.Generator"], float]


@dataclass(frozen=True)
class QueueingResults:
    """Summary of one queueing-station run."""

    arrivals: int
    served: int
    mean_wait: float
    wait_moment2: float
    wait_moment3: float
    wait_quantile_99: float
    wait_quantile_9999: float
    utilization: float
    mean_queue_length: float
    wait_probability: float

    def normalized_mean_wait(self, mean_service: float) -> float:
        """Mean wait in units of the mean service time (paper's Fig. 10 axis)."""
        return self.mean_wait / mean_service


class QueueingStation:
    """A FIFO single-server queue with unlimited buffer.

    Parameters
    ----------
    engine:
        Virtual-time engine.
    service:
        Either a :class:`~repro.simulation.distributions.Distribution` or a
        callable ``rng -> float`` drawing one service time.
    rng:
        Generator for service-time draws.
    window:
        Measurement window; waiting times of customers *arriving* inside the
        window are recorded, matching the paper's methodology.
    """

    def __init__(
        self,
        engine: Engine,
        service: Distribution | ServiceSampler,
        rng: np.random.Generator,
        window: Optional[MeasurementWindow] = None,
        name: str = "station",
    ):
        self._engine = engine
        self._rng = rng
        self.name = name
        if isinstance(service, Distribution):
            self._draw_service: ServiceSampler = service.sample
        else:
            self._draw_service = service
        self.waits = SampleStats(name=f"{name}.wait", window=window)
        self.delayed = SampleStats(name=f"{name}.delayed-wait", window=window)
        self.busy = BusyTracker(window=window)
        self.queue_length = TimeWeightedStat(initial=0.0, window=window)
        self.arrivals = 0
        self.served = 0
        self._waiting: Deque[float] = deque()  # arrival times of queued customers
        self._in_service = False

    # ------------------------------------------------------------------
    def arrive(self) -> None:
        """Register one arrival at the current virtual time."""
        now = self._engine.now
        self.arrivals += 1
        self._waiting.append(now)
        self.queue_length.update(now, len(self._waiting))
        if not self._in_service:
            self._start_service()

    def _start_service(self) -> None:
        now = self._engine.now
        arrival_time = self._waiting.popleft()
        self.queue_length.update(now, len(self._waiting))
        wait = now - arrival_time
        self.waits.record(wait, time=arrival_time)
        if wait > 0:
            self.delayed.record(wait, time=arrival_time)
        self._in_service = True
        self.busy.busy(now)
        service_time = float(self._draw_service(self._rng))
        if service_time < 0 or math.isnan(service_time):
            raise ValueError(f"invalid service time {service_time}")
        self._engine.call_in(service_time, self._complete_service)

    def _complete_service(self) -> None:
        now = self._engine.now
        self.served += 1
        self._in_service = False
        self.busy.idle(now)
        if self._waiting:
            self._start_service()

    # ------------------------------------------------------------------
    def results(self, until: float) -> QueueingResults:
        """Summarise the run as of virtual time ``until``."""
        n_waits = max(self.waits.count, 1)
        n_delayed = self.delayed.count
        return QueueingResults(
            arrivals=self.arrivals,
            served=self.served,
            mean_wait=self.waits.mean(),
            wait_moment2=self.waits.moment(2),
            wait_moment3=self.waits.moment(3),
            wait_quantile_99=self.waits.quantile(0.99),
            wait_quantile_9999=self.waits.quantile(0.9999),
            utilization=self.busy.utilization(until),
            mean_queue_length=self.queue_length.time_average(until),
            wait_probability=n_delayed / n_waits,
        )


def simulate_mg1(
    arrival_rate: float,
    service: Distribution | ServiceSampler,
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
    batch: int = 1,
) -> QueueingResults:
    """Simulate an M/G/1-∞ queue and summarise its waiting times.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate λ in messages per second.
    service:
        Service-time distribution B.
    rng:
        Random generator (arrivals and services draw from it).
    horizon:
        Virtual run length in seconds.
    warmup_fraction:
        Fraction of the horizon trimmed at *both* ends, mirroring the paper's
        5 s / 100 s trim.
    batch:
        Prefetch inter-arrival gaps (and service times, when ``service``
        is a :class:`Distribution`) in vectorised blocks of this size.
        The default 1 draws one value at a time and reproduces the
        historical seeded sequences exactly; ``batch > 1`` is a speed
        knob that consumes the shared generator in a different order, so
        seeded outputs differ (statistics do not).
    """
    if arrival_rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {arrival_rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0 <= warmup_fraction < 0.5:
        raise ValueError(f"warmup fraction must be in [0, 0.5), got {warmup_fraction}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    engine = Engine()
    trim = horizon * warmup_fraction
    window = (
        MeasurementWindow(trim, horizon - trim)
        if trim > 0
        else MeasurementWindow(0.0, horizon)
    )
    if batch > 1 and isinstance(service, Distribution):
        service = BatchSampler(service, rng, batch)
    station = QueueingStation(engine, service, rng, window=window, name="mg1")
    if batch > 1:
        draw_gap: Callable[[], float] = BatchSampler(Exponential(arrival_rate), rng, batch)
    else:

        def draw_gap() -> float:
            return float(rng.exponential(1.0 / arrival_rate))

    def schedule_next_arrival() -> None:
        def on_arrival() -> None:
            station.arrive()
            schedule_next_arrival()

        engine.call_in(draw_gap(), on_arrival)

    schedule_next_arrival()
    engine.run(until=horizon)
    return station.results(until=horizon)


def simulate_gg1(
    interarrival: Distribution,
    service: Distribution | ServiceSampler,
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
    batch: int = 1,
) -> QueueingResults:
    """Simulate a GI/G/1-∞ queue with renewal arrivals.

    Extension beyond the paper's Poisson assumption: ``interarrival`` may
    be any :class:`~repro.simulation.distributions.Distribution` —
    Erlang for smoother-than-Poisson arrivals, hyperexponential for
    bursty ones — enabling the arrival-sensitivity study validated
    against the Kingman approximation (:mod:`repro.core.gg1`).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0 <= warmup_fraction < 0.5:
        raise ValueError(f"warmup fraction must be in [0, 0.5), got {warmup_fraction}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    engine = Engine()
    trim = horizon * warmup_fraction
    window = (
        MeasurementWindow(trim, horizon - trim)
        if trim > 0
        else MeasurementWindow(0.0, horizon)
    )
    if batch > 1 and isinstance(service, Distribution):
        service = BatchSampler(service, rng, batch)
    station = QueueingStation(engine, service, rng, window=window, name="gg1")
    if batch > 1:
        draw_gap: Callable[[], float] = BatchSampler(interarrival, rng, batch)
    else:

        def draw_gap() -> float:
            return float(interarrival.sample(rng))

    def schedule_next_arrival() -> None:
        def on_arrival() -> None:
            station.arrive()
            schedule_next_arrival()

        engine.call_in(draw_gap(), on_arrival)

    schedule_next_arrival()
    engine.run(until=horizon)
    return station.results(until=horizon)
