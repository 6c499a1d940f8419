"""Single-server FIFO queues (M/G/1, GI/G/1, M^X/G/1) by the Lindley recursion.

The paper models the JMS server as an M/G/1-∞ queue (Section IV-B.1,
Fig. 7).  The waiting time of customer ``n`` in a FIFO queue with
unlimited buffer obeys ``W_{n+1} = max(0, W_n + B_n − A_{n+1})``, with
``B`` the service times and ``A`` the inter-arrival gaps.  With ``S_0 =
0`` and ``S_n = Σ_{i<n}(B_i − A_{i+1})`` it unrolls to ``W_n = S_n −
min_{k≤n} S_k``: one cumulative sum and one running minimum
(:func:`lindley_waits`).  Batch arrivals need no second simulator — the
members of a batch arrive with ``A = 0`` between them (Ikegawa,
arXiv:1803.10553), in the order they were drawn.

The drivers draw an arrival-time array, draw the services with one
``sample_many`` call, and summarise the waits of the customers that
*arrive* inside the measurement window in one shared summary, so the
closed-form results of :mod:`repro.core.mg1`, :mod:`repro.core.gg1` and
:mod:`repro.core.batch` can be cross-validated.

**Draw order** (the seeded contract): a driver splits the caller's
generator with ``rng.spawn(2)``.  The first child draws the arrival side:
the inter-arrival (or batch-epoch) gaps, in blocks of ``⌊1.05 · horizon /
E[A]⌋ + 64`` until they pass the horizon, then, for M^X/G/1, one batch
size per epoch.  The second child draws one service time per arrival in a
single ``sample_many`` call, so the services do not depend on how many
gaps were drawn past the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from .distributions import Distribution, Exponential
from .metrics import MeasurementWindow

if TYPE_CHECKING:  # pragma: no cover - types only, avoids a hard cycle
    from ..core.batch import BatchSizeLaw

__all__ = [
    "QueueingResults",
    "lindley_waits",
    "simulate_gg1",
    "simulate_mg1",
    "simulate_mxg1",
]


class Sampler(Protocol):
    """Anything that draws a vector of service times: a
    :class:`~repro.simulation.distributions.Distribution`, a
    :class:`~repro.core.service_time.ServiceTimeModel`."""

    def sample_many(
        self, rng: np.random.Generator, size: int
    ) -> Sequence[float] | np.ndarray: ...


@dataclass(frozen=True)
class QueueingResults:
    """Summary of one FIFO-queue run: waits of the in-window arrivals."""

    served: int
    mean_wait: float
    wait_quantile_99: float
    wait_quantile_9999: float
    wait_probability: float


def lindley_waits(arrivals: Sequence[float], services: Sequence[float]) -> np.ndarray:
    """Waiting times of a FIFO single-server queue with unlimited buffer.

    ``arrivals`` are non-decreasing arrival times; customer ``n`` brings
    ``services[n]`` of work.  Customers arriving together are served in
    array order.  A negative or NaN service time, arrival times out of
    order or arrays of unequal length raise ``ValueError``.
    """
    times = np.asarray(arrivals, dtype=float)
    work = np.asarray(services, dtype=float)
    if times.ndim != 1 or times.shape != work.shape:
        raise ValueError(
            f"need two 1-D arrays of one length, got {times.shape} and {work.shape}"
        )
    if not (work >= 0).all():
        raise ValueError(f"invalid service time {work[~(work >= 0)][0]}")
    if not (np.diff(times) >= 0).all():
        raise ValueError("arrival times must be non-decreasing")
    if times.size == 0:
        return times
    # S_n = Σ_{i<n} B_i − (t_n − t_0): work brought minus time elapsed.
    s = np.empty_like(times)
    s[0] = 0.0
    np.cumsum(work[:-1], out=s[1:])
    s -= times - times[0]
    return s - np.minimum.accumulate(s)


def _measure_fifo(
    arrivals: Sequence[float],
    services: Sequence[float],
    window: MeasurementWindow,
    horizon: float,
) -> QueueingResults:
    """Summarise the waits of the customers arriving inside ``window``.

    ``served`` counts the customers (in or out of the window) whose
    service ends by ``horizon``.
    """
    times = np.asarray(arrivals, dtype=float)
    work = np.asarray(services, dtype=float)
    waits = lindley_waits(times, work)
    kept = waits[(times >= window.start) & (times < window.end)]
    if kept.size:
        mean = float(kept.mean())
        q99, q9999 = np.quantile(kept, [0.99, 0.9999], method="inverted_cdf")
    else:
        mean = q99 = q9999 = math.nan
    return QueueingResults(
        served=int(np.count_nonzero(times + waits + work <= horizon)),
        mean_wait=mean,
        wait_quantile_99=float(q99),
        wait_quantile_9999=float(q9999),
        wait_probability=int(np.count_nonzero(kept > 0)) / max(kept.size, 1),
    )


def _window(horizon: float, warmup_fraction: float) -> MeasurementWindow:
    """The run's window: ``warmup_fraction`` of the horizon trimmed at
    *both* ends, mirroring the paper's 5 s / 100 s trim."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0 <= warmup_fraction < 0.5:
        raise ValueError(f"warmup fraction must be in [0, 0.5), got {warmup_fraction}")
    trim = horizon * warmup_fraction
    return MeasurementWindow(trim, horizon - trim)


def _renewal_epochs(
    gap: Distribution, rng: np.random.Generator, horizon: float
) -> np.ndarray:
    """Epochs of a renewal process started at 0, up to ``horizon``."""
    if not gap.mean > 0:
        raise ValueError(f"mean inter-arrival time must be positive, got {gap.mean}")
    block = int(1.05 * horizon / gap.mean) + 64
    blocks = []
    drawn = 0.0
    while drawn < horizon:
        blocks.append(np.asarray(gap.sample_many(rng, block), dtype=float))
        drawn += float(blocks[-1].sum())
    epochs = np.cumsum(np.concatenate(blocks))
    return epochs[epochs < horizon]


def simulate_gg1(
    interarrival: Distribution,
    service: Sampler,
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
) -> QueueingResults:
    """Simulate a GI/G/1-∞ queue with renewal arrivals.

    Extension beyond the paper's Poisson assumption: ``interarrival`` may
    be any :class:`~repro.simulation.distributions.Distribution` —
    Erlang for smoother-than-Poisson arrivals, hyperexponential for
    bursty ones — enabling the arrival-sensitivity study validated
    against the Kingman approximation (:mod:`repro.core.gg1`).
    ``warmup_fraction`` of the horizon is trimmed at both ends.
    """
    window = _window(horizon, warmup_fraction)
    arrival_rng, service_rng = rng.spawn(2)
    arrivals = _renewal_epochs(interarrival, arrival_rng, horizon)
    return _measure_fifo(
        arrivals, service.sample_many(service_rng, arrivals.size), window, horizon
    )


def simulate_mg1(
    arrival_rate: float,
    service: Sampler,
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
) -> QueueingResults:
    """Simulate the paper's M/G/1-∞ queue: :func:`simulate_gg1` with
    Poisson arrivals of rate ``arrival_rate`` (messages per second)."""
    return simulate_gg1(Exponential(arrival_rate), service, rng, horizon, warmup_fraction)


def simulate_mxg1(
    batch_rate: float,
    batch: "BatchSizeLaw",
    service: Sampler,
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
) -> QueueingResults:
    """Simulate an M^X/G/1-∞ queue and summarise per-message waits.

    Batches arrive at Poisson epochs of rate ``batch_rate`` (``λ_B``;
    the per-message rate is ``λ_B · E[X]``) and carry ``X`` messages
    drawn from ``batch``.  Each message's own wait is recorded, so the
    within-batch predecessor term of :class:`~repro.core.batch.MXG1Queue`
    is cross-validated too.
    """
    window = _window(horizon, warmup_fraction)
    arrival_rng, service_rng = rng.spawn(2)
    epochs = _renewal_epochs(Exponential(batch_rate), arrival_rng, horizon)
    arrivals = np.repeat(epochs, batch.sample(arrival_rng, epochs.size))
    return _measure_fifo(
        arrivals, service.sample_many(service_rng, arrivals.size), window, horizon
    )
