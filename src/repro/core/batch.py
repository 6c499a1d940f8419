"""M^X/G/1 batch-arrival waiting-time analysis (ROADMAP item 3).

The paper's M/G/1 model (Eqs. 4–5) charges every message an independent
Poisson arrival.  A batched publish path instead delivers *groups* of
messages at Poisson epochs: batches arrive at rate ``λ_B``, each carrying
a random number ``X ≥ 1`` of messages that are served one at a time in
FIFO order.  This is the classical M^X/G/1 queue (Ikegawa,
arXiv:1803.10553, segments a payload into ``b`` pieces the same way).

A tagged message's wait decomposes into two independent pieces:

- ``V`` — the stationary workload found by its *batch* (a Poisson
  arrival, so PASTA applies).  Treating each batch as one super-customer
  with service ``U = Σ_{i=1}^{X} S_i``, the M/G/1 Pollaczek–Khinchine
  formulas give the first two moments of ``V`` from the moments of ``U``;
- the services of the ``P`` batch-mates *ahead of it* in its own batch.
  A random message lands in a size-biased batch, uniformly positioned,
  so ``E[P] = E[X(X−1)] / (2·E[X])`` and
  ``E[P²] = E[X(X−1)(2X−1)] / (6·E[X])``.

With ``S`` the per-message service time (``W = V + Σ_{i=1}^{P} S_i``):

- ``E[W]  = E[V] + E[P]·E[S]``
- ``E[W²] = E[V²] + 2·E[V]·E[P]·E[S] + E[P]·(E[S²]−E[S]²) + E[P²]·E[S]²``

At ``X ≡ 1`` every batch-size factorial moment above the first vanishes,
``U = S``, and both formulas degenerate *exactly* to the paper's Eqs. 4–5
— the acceptance gate checks this to 1e-12 against :class:`~repro.core.mg1.MG1Queue`.

This module is numpy-free at import time (``repro lint`` / ``repro
check`` must run without the optional ``fast`` extra); the
:meth:`MXG1Queue.as_mg1` cross-check imports :mod:`repro.core.mg1`
lazily because that module needs numpy for its Gamma tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, List, Protocol

from .moments import Moments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .mg1 import MG1Queue

__all__ = [
    "BatchSizeLaw",
    "DeterministicBatchSize",
    "GeometricBatchSize",
    "MXG1Queue",
]


class BatchSizeLaw(Protocol):
    """First three moments and a sampler for a batch size ``X ≥ 1``."""

    @property
    def m1(self) -> float:
        """``E[X]``."""
        ...

    @property
    def m2(self) -> float:
        """``E[X²]``."""
        ...

    @property
    def m3(self) -> float:
        """``E[X³]``."""
        ...

    def sample(self, rng: Any, count: int) -> List[int]:
        """Draw ``count`` batch sizes (each ≥ 1) using ``rng``."""
        ...

    def describe(self) -> dict:
        """Plain-dict summary for result tables."""
        ...


@dataclass(frozen=True)
class DeterministicBatchSize:
    """Every batch carries exactly ``size`` messages (Ikegawa's segmentation)."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.size}")

    @property
    def m1(self) -> float:
        return float(self.size)

    @property
    def m2(self) -> float:
        return float(self.size) ** 2

    @property
    def m3(self) -> float:
        return float(self.size) ** 3

    def sample(self, rng: Any, count: int) -> List[int]:
        return [self.size] * count

    def describe(self) -> dict:
        return {"law": "deterministic", "size": self.size, "mean": self.m1}


@dataclass(frozen=True)
class GeometricBatchSize:
    """Geometric batch size on ``{1, 2, …}`` with the given mean.

    ``P(X = k) = p·(1−p)^{k−1}`` with ``p = 1/mean`` — the memoryless
    "keep appending until a flush" law a timer-driven batcher produces.
    Raw moments: ``E[X] = 1/p``, ``E[X²] = (2−p)/p²``,
    ``E[X³] = (p² − 6p + 6)/p³``.
    """

    mean: float

    def __post_init__(self) -> None:
        if self.mean < 1:
            raise ValueError(f"geometric batch mean must be >= 1, got {self.mean}")

    @property
    def p(self) -> float:
        """Success probability ``1/mean``."""
        return 1.0 / self.mean

    @property
    def m1(self) -> float:
        return self.mean

    @property
    def m2(self) -> float:
        p = self.p
        return (2.0 - p) / p**2

    @property
    def m3(self) -> float:
        p = self.p
        return (p**2 - 6.0 * p + 6.0) / p**3

    def sample(self, rng: Any, count: int) -> List[int]:
        # numpy's ``geometric(p, size)`` has support {1, 2, ...}.
        return [int(value) for value in rng.geometric(self.p, size=count)]

    def describe(self) -> dict:
        return {"law": "geometric", "mean": self.mean, "p": self.p}


def _factorial_moments(law: BatchSizeLaw) -> tuple[float, float, float]:
    """``(E[X], E[X(X−1)], E[X(X−1)(X−2)])`` from the raw moments."""
    f1 = law.m1
    f2 = law.m2 - law.m1
    f3 = law.m3 - 3.0 * law.m2 + 2.0 * law.m1
    # Tiny negative values are floating-point noise on near-degenerate laws.
    return f1, max(0.0, f2), max(0.0, f3)


@dataclass(frozen=True)
class MXG1Queue:
    """An M^X/G/1-∞ queue: batches at rate ``λ_B``, sizes ``X``, service ``S``.

    Example
    -------
    >>> from repro.core import Moments, MXG1Queue, DeterministicBatchSize
    >>> queue = MXG1Queue.from_utilization(
    ...     0.9, DeterministicBatchSize(1), Moments(1.0, 2.0, 6.0)
    ... )
    >>> round(queue.mean_wait, 1)  # degenerates to M/M/1 at rho=0.9
    9.0
    """

    batch_rate: float
    batch: BatchSizeLaw
    service: Moments

    def __post_init__(self) -> None:
        if self.batch_rate < 0:
            raise ValueError(f"batch rate must be non-negative, got {self.batch_rate}")
        if self.service.m1 <= 0:
            raise ValueError("service time must have a positive mean")
        if self.batch.m1 < 1:
            raise ValueError(f"mean batch size must be >= 1, got {self.batch.m1}")
        if self.utilization >= 1:
            raise ValueError(
                f"unstable queue: utilization {self.utilization:.4f} >= 1 "
                f"(λ_B={self.batch_rate}, E[X]={self.batch.m1}, E[S]={self.service.m1})"
            )

    @classmethod
    def from_utilization(
        cls, rho: float, batch: BatchSizeLaw, service: Moments
    ) -> "MXG1Queue":
        """Construct from a target *message* utilization ``ρ = λ·E[S]``."""
        if not 0 <= rho < 1:
            raise ValueError(f"utilization must be in [0, 1), got {rho}")
        return cls(batch_rate=rho / (batch.m1 * service.m1), batch=batch, service=service)

    # ------------------------------------------------------------------
    @property
    def message_rate(self) -> float:
        """Per-message arrival rate ``λ = λ_B·E[X]``."""
        return self.batch_rate * self.batch.m1

    @property
    def utilization(self) -> float:
        """Server utilization ``ρ = λ·E[S]`` (unchanged by batching)."""
        return self.message_rate * self.service.m1

    # ------------------------------------------------------------------
    # Batch super-customer workload U = sum of X per-message services
    # ------------------------------------------------------------------
    @cached_property
    def batch_workload(self) -> Moments:
        """Moments of ``U = Σ_{i=1}^{X} S_i`` (compound-sum identities)."""
        f1, f2, f3 = _factorial_moments(self.batch)
        s1, s2, s3 = self.service.m1, self.service.m2, self.service.m3
        u1 = f1 * s1
        u2 = f1 * s2 + f2 * s1**2
        u3 = f1 * s3 + 3.0 * f2 * s2 * s1 + f3 * s1**3
        return Moments(u1, u2, u3)

    @cached_property
    def mean_workload(self) -> float:
        """``E[V] = λ_B·E[U²] / (2·(1−ρ))`` — P-K on the batch queue."""
        rho = self.utilization
        if rho == 0:
            return 0.0
        return self.batch_rate * self.batch_workload.m2 / (2.0 * (1.0 - rho))

    @cached_property
    def workload_moment2(self) -> float:
        """``E[V²] = 2·E[V]² + λ_B·E[U³] / (3·(1−ρ))``."""
        rho = self.utilization
        if rho == 0:
            return 0.0
        tail = self.batch_rate * self.batch_workload.m3 / (3.0 * (1.0 - rho))
        return 2.0 * self.mean_workload**2 + tail

    # ------------------------------------------------------------------
    # Within-batch predecessors of a size-biased, uniformly placed message
    # ------------------------------------------------------------------
    @cached_property
    def mean_predecessors(self) -> float:
        """``E[P] = E[X(X−1)] / (2·E[X])``."""
        f1, f2, _ = _factorial_moments(self.batch)
        return f2 / (2.0 * f1)

    @cached_property
    def predecessors_moment2(self) -> float:
        """``E[P²] = E[X(X−1)(2X−1)] / (6·E[X])``."""
        numerator = 2.0 * self.batch.m3 - 3.0 * self.batch.m2 + self.batch.m1
        return max(0.0, numerator) / (6.0 * self.batch.m1)

    # ------------------------------------------------------------------
    # Waiting time of a tagged message
    # ------------------------------------------------------------------
    @cached_property
    def mean_wait(self) -> float:
        """``E[W] = E[V] + E[P]·E[S]`` (Eq. 4 at ``X ≡ 1``)."""
        return self.mean_workload + self.mean_predecessors * self.service.m1

    @cached_property
    def wait_moment2(self) -> float:
        """Second moment of the wait (Eq. 5 at ``X ≡ 1``).

        ``W = V + T`` with ``T = Σ_{i=1}^{P} S_i`` independent of ``V``:
        ``E[T²] = E[P]·(E[S²]−E[S]²) + E[P²]·E[S]²``.
        """
        s1, s2 = self.service.m1, self.service.m2
        mean_t = self.mean_predecessors * s1
        t2 = self.mean_predecessors * (s2 - s1**2) + self.predecessors_moment2 * s1**2
        return self.workload_moment2 + 2.0 * self.mean_workload * mean_t + t2

    @property
    def wait_std(self) -> float:
        return math.sqrt(max(0.0, self.wait_moment2 - self.mean_wait**2))

    @property
    def normalized_mean_wait(self) -> float:
        """``E[W] / E[S]`` — comparable to the paper's Fig. 10 axis."""
        return self.mean_wait / self.service.m1

    @cached_property
    def mean_sojourn(self) -> float:
        """Mean time in system ``E[W] + E[S]``."""
        return self.mean_wait + self.service.m1

    @cached_property
    def mean_queue_length(self) -> float:
        """Mean number waiting (Little's law, ``λ·E[W]``)."""
        return self.message_rate * self.mean_wait

    @property
    def batching_penalty(self) -> float:
        """``E[W] / E[W at X≡1]`` — wait inflation bought by batching.

        The throughput win of batching is paid for in latency; this ratio
        quantifies the price at fixed per-message load.
        """
        single = MXG1Queue(
            batch_rate=self.message_rate,
            batch=DeterministicBatchSize(1),
            service=self.service,
        )
        if single.mean_wait == 0:
            return 1.0
        return self.mean_wait / single.mean_wait

    # ------------------------------------------------------------------
    def as_mg1(self) -> "MG1Queue":
        """The M/G/1 queue with the same per-message rate and service.

        At ``X ≡ 1`` its Eqs. 4–5 moments must equal this model's to
        1e-12 — the degeneration check in ``python -m repro bench
        batch``.  Imported lazily: :mod:`repro.core.mg1` needs numpy.
        """
        from .mg1 import MG1Queue

        return MG1Queue(arrival_rate=self.message_rate, service=self.service)

    def describe(self) -> dict:
        """A plain-dict summary of the queue (logging / result tables)."""
        return {
            "batch_rate": self.batch_rate,
            "message_rate": self.message_rate,
            "batch": self.batch.describe(),
            "utilization": self.utilization,
            "mean_service_time": self.service.m1,
            "mean_batch_workload": self.batch_workload.m1,
            "mean_workload": self.mean_workload,
            "mean_predecessors": self.mean_predecessors,
            "mean_wait": self.mean_wait,
            "wait_std": self.wait_std,
            "normalized_mean_wait": self.normalized_mean_wait,
            "mean_sojourn": self.mean_sojourn,
            "mean_queue_length": self.mean_queue_length,
            "batching_penalty": self.batching_penalty,
        }
