"""Sampling distributions for the simulation layer.

Each distribution knows how to *sample* (given a ``numpy`` generator) and
reports its exact first three raw moments, because the M/G/1 analysis of the
paper (Eqs. 4–5, 7–9) consumes ``E[X]``, ``E[X²]`` and ``E[X³]``.  Tests
cross-check the analytic moments against empirical ones.

These are generic building blocks; the paper's replication-grade models
(deterministic / scaled Bernoulli / binomial) live in
:mod:`repro.core.replication` and plug into the same protocol.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Gamma",
    "Lognormal",
    "Hyperexponential",
    "Erlang",
    "Empirical",
    "BatchSampler",
]


class Distribution(ABC):
    """A non-negative random variable with known raw moments."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one realisation."""

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        """Draw ``size`` realisations (vectorised where possible)."""
        values = [self.sample(rng) for _ in range(size)]
        return np.array(values)

    @abstractmethod
    def moment(self, k: int) -> float:
        """Raw moment ``E[X**k]`` for ``k`` in 1..3."""

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def variance(self) -> float:
        return max(0.0, self.moment(2) - self.mean**2)

    @property
    def cvar(self) -> float:
        """Coefficient of variation ``std / mean`` (0 if the mean is 0)."""
        mean = self.mean
        if mean == 0:
            return 0.0
        return math.sqrt(self.variance) / mean

    @staticmethod
    def _check_order(k: int) -> None:
        if k not in (1, 2, 3):
            raise ValueError(f"moment order must be 1, 2 or 3, got {k}")


class Deterministic(Distribution):
    """Constant value — the paper's deterministic replication model analog."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"value must be non-negative, got {value}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        return np.full(size, self.value)

    def moment(self, k: int) -> float:
        self._check_order(k)
        return self.value**k

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


class Exponential(Distribution):
    """Exponential distribution with the given ``rate`` (per second).

    Used for the Poisson arrival process of Section IV-B.1.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        return rng.exponential(1.0 / self.rate, size=size)

    def moment(self, k: int) -> float:
        self._check_order(k)
        return math.factorial(k) / self.rate**k

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate!r})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        return rng.uniform(self.low, self.high, size=size)

    def moment(self, k: int) -> float:
        self._check_order(k)
        a, b = self.low, self.high
        if a == b:
            return a**k
        # E[X^k] = (b^{k+1} - a^{k+1}) / ((k+1)(b - a))
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class Gamma(Distribution):
    """Gamma distribution with ``shape`` α and ``scale`` β (mean αβ).

    The paper fits a Gamma to the conditional waiting time (Section IV-B.4);
    this class lets simulations draw from the fitted law as well.
    """

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be positive, got {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, self.scale))

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        return rng.gamma(self.shape, self.scale, size=size)

    def moment(self, k: int) -> float:
        self._check_order(k)
        # E[X^k] = scale^k * prod_{i=0}^{k-1} (shape + i)
        product = 1.0
        for i in range(k):
            product *= self.shape + i
        return self.scale**k * product

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape!r}, scale={self.scale!r})"


class Erlang(Gamma):
    """Erlang-k distribution: Gamma with integer shape.

    Convenient for low-variability service times (``cvar = 1/sqrt(k)``).
    """

    def __init__(self, k: int, rate: float):
        if k < 1 or int(k) != k:
            raise ValueError(f"k must be a positive integer, got {k}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(shape=float(k), scale=1.0 / rate)
        self.k = int(k)
        self.rate = float(rate)

    def __repr__(self) -> str:
        return f"Erlang(k={self.k!r}, rate={self.rate!r})"


class Lognormal(Distribution):
    """Lognormal distribution parameterised by its underlying normal."""

    def __init__(self, mu: float, sigma: float):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        return rng.lognormal(self.mu, self.sigma, size=size)

    def moment(self, k: int) -> float:
        self._check_order(k)
        return math.exp(k * self.mu + 0.5 * k**2 * self.sigma**2)

    def __repr__(self) -> str:
        return f"Lognormal(mu={self.mu!r}, sigma={self.sigma!r})"


class Hyperexponential(Distribution):
    """Mixture of exponentials — a standard high-variability service model.

    Parameters
    ----------
    rates:
        Rate of each exponential branch.
    probabilities:
        Branch probabilities; must sum to 1.
    """

    def __init__(self, rates: Sequence[float], probabilities: Sequence[float]):
        if len(rates) != len(probabilities) or not rates:
            raise ValueError("rates and probabilities must be equal-length and non-empty")
        if any(rate <= 0 for rate in rates):
            raise ValueError(f"all rates must be positive, got {rates}")
        if any(p < 0 for p in probabilities):
            raise ValueError(f"probabilities must be non-negative, got {probabilities}")
        total = float(sum(probabilities))
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        self.rates = [float(rate) for rate in rates]
        self.probabilities = [float(p) / total for p in probabilities]

    def sample(self, rng: np.random.Generator) -> float:
        branch = rng.choice(len(self.rates), p=self.probabilities)
        return float(rng.exponential(1.0 / self.rates[branch]))

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        """Vectorised batch: all branch picks, then all exponentials.

        Consumes the stream in a different order than ``size`` repeated
        :meth:`sample` calls, so a seeded batch differs draw-for-draw
        from a seeded sequential run (the distribution is identical).
        """
        branches = rng.choice(len(self.rates), size=size, p=self.probabilities)
        scales = np.reciprocal(np.asarray(self.rates))[branches]
        return rng.exponential(1.0, size=size) * scales

    def moment(self, k: int) -> float:
        self._check_order(k)
        return sum(
            p * math.factorial(k) / rate**k
            for p, rate in zip(self.probabilities, self.rates)
        )

    def __repr__(self) -> str:
        return f"Hyperexponential(rates={self.rates!r}, probabilities={self.probabilities!r})"


class Empirical(Distribution):
    """Resampling distribution over observed values (trace-driven runs)."""

    def __init__(self, values: Sequence[float]):
        if not len(values):
            raise ValueError("values must be non-empty")
        array = np.asarray(values, dtype=float)
        if any(v < 0 for v in array):
            raise ValueError("values must be non-negative")
        self.values = array

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self.values))

    def sample_many(self, rng: np.random.Generator, size: int) -> Sequence[float]:
        return rng.choice(self.values, size=size)

    def moment(self, k: int) -> float:
        self._check_order(k)
        return float(np.mean(self.values**k))

    def __repr__(self) -> str:
        return f"Empirical(n={len(self.values)})"


class BatchSampler:
    """Prefetch draws from a distribution in fixed-size batches.

    One vectorised ``sample_many`` call per ``batch`` draws amortizes the
    per-draw RNG dispatch overhead — the simulation layer's analog of the
    compiled-selector optimization.  The wrapped generator is consumed in
    blocks, so interleaving a :class:`BatchSampler` with other draws from
    the *same* generator produces a different (equally valid) seeded
    sequence than unbatched sampling; give the sampler its own stream
    when draw-for-draw reproducibility against ``batch=1`` matters.

    Instances are callable as ``sampler()`` and also accept (and ignore)
    a generator argument, so they can stand in for a ``ServiceSampler``
    in :class:`~repro.simulation.queueing.QueueingStation`.
    """

    __slots__ = ("distribution", "rng", "batch", "_buffer", "_index")

    def __init__(self, distribution: Distribution, rng: np.random.Generator, batch: int = 256):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.distribution = distribution
        self.rng = rng
        self.batch = int(batch)
        self._buffer: Sequence[float] = ()
        self._index = 0

    def __call__(self, rng: Optional[np.random.Generator] = None) -> float:
        index = self._index
        buffer = self._buffer
        if index >= len(buffer):
            buffer = self._buffer = self.distribution.sample_many(self.rng, self.batch)
            index = 0
        self._index = index + 1
        return float(buffer[index])
