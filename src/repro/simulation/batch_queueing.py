"""Batch-arrival (M^X/G/1) queueing simulation.

The station is the unchanged FIFO :class:`~repro.simulation.queueing.QueueingStation`;
only the arrival process changes: batches arrive at Poisson epochs of
rate ``λ_B``, and at each epoch ``X`` messages (drawn from a
:class:`~repro.core.batch.BatchSizeLaw`) arrive *simultaneously*.  The
station records each message's individual wait, so the sample moments
cross-validate :class:`~repro.core.batch.MXG1Queue` directly — including
the within-batch predecessor term, because messages of one batch queue
behind each other in arrival order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .distributions import Distribution
from .engine import Engine
from .metrics import MeasurementWindow
from .queueing import QueueingResults, QueueingStation, ServiceSampler

if TYPE_CHECKING:  # pragma: no cover - types only, avoids a hard cycle
    import numpy as np

    from ..core.batch import BatchSizeLaw

__all__ = ["simulate_mxg1"]


def simulate_mxg1(
    batch_rate: float,
    batch: "BatchSizeLaw",
    service: Distribution | ServiceSampler,
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
) -> QueueingResults:
    """Simulate an M^X/G/1-∞ queue and summarise per-message waits.

    Parameters
    ----------
    batch_rate:
        Poisson *batch* arrival rate ``λ_B`` (batches per second); the
        per-message rate is ``λ_B · E[X]``.
    batch:
        Batch-size law ``X`` (deterministic or geometric).
    service:
        Per-message service-time distribution ``S``.
    rng:
        Random generator (batch sizes, gaps and services draw from it).
    horizon:
        Virtual run length in seconds.
    warmup_fraction:
        Fraction of the horizon trimmed at both ends (paper methodology).
    """
    if batch_rate <= 0:
        raise ValueError(f"batch rate must be positive, got {batch_rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0 <= warmup_fraction < 0.5:
        raise ValueError(f"warmup fraction must be in [0, 0.5), got {warmup_fraction}")
    engine = Engine()
    trim = horizon * warmup_fraction
    window = (
        MeasurementWindow(trim, horizon - trim)
        if trim > 0
        else MeasurementWindow(0.0, horizon)
    )
    station = QueueingStation(engine, service, rng, window=window, name="mxg1")

    def draw_gap() -> float:
        return float(rng.exponential(1.0 / batch_rate))

    def schedule_next_batch() -> None:
        def on_batch() -> None:
            (size,) = batch.sample(rng, 1)
            for _ in range(size):
                station.arrive()
            schedule_next_batch()

        engine.call_in(draw_gap(), on_batch)

    schedule_next_batch()
    engine.run(until=horizon)
    return station.results(until=horizon)
