"""Models for the message replication grade ``R`` (Section IV-B.2).

The replication grade is the number of subscribers a message is forwarded
to.  Its distribution drives the variability of the service time and hence
the waiting time.  The paper studies three models:

- :class:`DeterministicReplication` — constant ``R`` (Eqs. 11–12);
- :class:`ScaledBernoulliReplication` — all ``n_fltr`` filters match with
  probability ``p_match``, none otherwise (Eqs. 13–15);
- :class:`BinomialReplication` — each filter matches independently with
  probability ``p_match`` (Eqs. 16–18).

Two transcription notes on the paper's equations: Eq. 14 as printed reads
``E[R²] = p²·n²`` but the surrounding identities (``n_fltr = E[R²]/E[R]``,
``p_match = E[R]²/E[R²]``) and Eq. 15 only hold for ``E[R²] = p·n²``, which
is the correct second moment of a scaled Bernoulli variable.  Similarly the
printed Eq. 17 is the *variance* ``n·p·(1−p)`` of the binomial, not its raw
second moment.  We implement the mathematically exact moments; the unit
tests verify them against empirical sampling.

Beyond the paper, :class:`GeneralDiscreteReplication` takes any pmf on
the grades (the paper's "other parameters" remark in Section IV-B.2b).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .moments import Moments

__all__ = [
    "ReplicationModel",
    "DeterministicReplication",
    "ScaledBernoulliReplication",
    "BinomialReplication",
    "GeneralDiscreteReplication",
]


class ReplicationModel(ABC):
    """A non-negative integer random variable with exact first 3 moments."""

    @property
    @abstractmethod
    def moments(self) -> Moments:
        """Exact raw moments ``E[R], E[R²], E[R³]``."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> int:
        """Draw one replication grade."""

    def distribution(self, tail_mass: float = 1e-12) -> List[Tuple[int, float]]:
        """Exact pmf as ``[(grade, probability), …]`` sorted by grade.

        Finite-support models return their full pmf; unbounded models
        truncate once the remaining tail mass drops below ``tail_mass``
        (the last entry absorbs the leftover so the list sums to 1).
        Powers the exact M/G/1/K embedded chain in
        :mod:`repro.overload.mg1k`, where the service time inherits this
        support through Eq. 1.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an exact distribution"
        )

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.array([self.sample(rng) for _ in range(size)], dtype=np.int64)

    @property
    def mean(self) -> float:
        return self.moments.m1

    @property
    def cvar(self) -> float:
        return self.moments.cvar


class DeterministicReplication(ReplicationModel):
    """Constant replication grade ``R = r`` (Eqs. 11–12).

    The paper calls this "very static and probably not appropriate to
    characterize real world scenarios" — it is the zero-variability
    baseline of the sensitivity analysis.
    """

    def __init__(self, r: int):
        if r < 0 or int(r) != r:
            raise ValueError(f"replication grade must be a non-negative integer, got {r}")
        self.r = int(r)

    @property
    def moments(self) -> Moments:
        return Moments.deterministic(float(self.r))

    def distribution(self, tail_mass: float = 1e-12) -> List[Tuple[int, float]]:
        return [(self.r, 1.0)]

    def sample(self, rng: np.random.Generator) -> int:
        return self.r

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.r, dtype=np.int64)

    def __repr__(self) -> str:
        return f"DeterministicReplication(r={self.r})"


class ScaledBernoulliReplication(ReplicationModel):
    """All-or-nothing matching (Eqs. 13–15).

    With probability ``p_match`` a message matches *all* ``n_fltr`` filters
    (``R = n_fltr``); otherwise it matches none (``R = 0``).  This is the
    highest-variability model the paper considers: ``c_var[B]`` approaches
    0.65 for correlation-ID filtering.
    """

    def __init__(self, n_fltr: int, p_match: float):
        if n_fltr < 0 or int(n_fltr) != n_fltr:
            raise ValueError(f"n_fltr must be a non-negative integer, got {n_fltr}")
        if not 0 <= p_match <= 1:
            raise ValueError(f"p_match must be in [0, 1], got {p_match}")
        self.n_fltr = int(n_fltr)
        self.p_match = float(p_match)

    @property
    def moments(self) -> Moments:
        n, p = self.n_fltr, self.p_match
        return Moments(p * n, p * n**2, p * n**3)

    def distribution(self, tail_mass: float = 1e-12) -> List[Tuple[int, float]]:
        if self.p_match == 1.0:
            return [(self.n_fltr, 1.0)]
        if self.p_match == 0.0 or self.n_fltr == 0:
            return [(0, 1.0)]
        return [(0, 1.0 - self.p_match), (self.n_fltr, self.p_match)]

    def sample(self, rng: np.random.Generator) -> int:
        return self.n_fltr if rng.random() < self.p_match else 0

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        hits = rng.random(size) < self.p_match
        return np.where(hits, self.n_fltr, 0).astype(np.int64)

    @classmethod
    def from_moments(cls, mean: float, m2: float) -> "ScaledBernoulliReplication":
        """Invert the model from ``E[R]`` and ``E[R²]`` (paper's vice-versa rule).

        ``n_fltr = E[R²]/E[R]`` and ``p_match = E[R]²/E[R²]``.  ``n_fltr`` is
        rounded to the nearest integer; a mismatch > 1e-6 relative raises.
        """
        if mean <= 0 or m2 <= 0:
            raise ValueError(f"moments must be positive, got E[R]={mean}, E[R²]={m2}")
        n_exact = m2 / mean
        n = round(n_exact)
        if n <= 0 or abs(n_exact - n) > 1e-6 * max(1.0, n_exact):
            raise ValueError(f"moments imply non-integer n_fltr = {n_exact}")
        p = mean**2 / m2
        if p > 1 + 1e-12:
            raise ValueError(f"moments imply p_match = {p} > 1")
        return cls(n_fltr=int(n), p_match=min(p, 1.0))

    def __repr__(self) -> str:
        return f"ScaledBernoulliReplication(n_fltr={self.n_fltr}, p_match={self.p_match})"


class BinomialReplication(ReplicationModel):
    """Independent per-filter matching (Eqs. 16–18).

    Each of the ``n_fltr`` installed filters matches a message independently
    with probability ``p_match``, so ``R ~ Binomial(n_fltr, p_match)``.  The
    paper adopts this as the realistic model; its service-time variability
    saturates at ``c_var[B] ≈ 0.064`` (correlation-ID) and ``≈ 0.033``
    (application property).
    """

    def __init__(self, n_fltr: int, p_match: float):
        if n_fltr < 0 or int(n_fltr) != n_fltr:
            raise ValueError(f"n_fltr must be a non-negative integer, got {n_fltr}")
        if not 0 <= p_match <= 1:
            raise ValueError(f"p_match must be in [0, 1], got {p_match}")
        self.n_fltr = int(n_fltr)
        self.p_match = float(p_match)

    @property
    def moments(self) -> Moments:
        n, p = self.n_fltr, self.p_match
        mean = n * p
        variance = n * p * (1 - p)
        m2 = variance + mean**2
        # Central third moment of a binomial: n·p·(1−p)·(1−2p).
        mu3 = n * p * (1 - p) * (1 - 2 * p)
        m3 = mu3 + 3 * mean * variance + mean**3
        return Moments(mean, m2, m3)

    def pmf(self, k: int) -> float:
        """``P(R = k)`` (Eq. 16)."""
        n, p = self.n_fltr, self.p_match
        if k < 0 or k > n:
            return 0.0
        return math.comb(n, k) * p**k * (1 - p) ** (n - k)

    def distribution(self, tail_mass: float = 1e-12) -> List[Tuple[int, float]]:
        support = [(k, self.pmf(k)) for k in range(self.n_fltr + 1)]
        return [(k, p) for k, p in support if p > 0.0]

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.binomial(self.n_fltr, self.p_match))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.binomial(self.n_fltr, self.p_match, size=size).astype(np.int64)

    @classmethod
    def from_mean(cls, n_fltr: int, mean: float) -> "BinomialReplication":
        """Binomial model over ``n_fltr`` filters with target ``E[R] = mean``."""
        if n_fltr <= 0:
            raise ValueError(f"n_fltr must be positive, got {n_fltr}")
        p = mean / n_fltr
        if not 0 <= p <= 1:
            raise ValueError(f"mean {mean} not reachable with {n_fltr} filters")
        return cls(n_fltr=n_fltr, p_match=p)

    def __repr__(self) -> str:
        return f"BinomialReplication(n_fltr={self.n_fltr}, p_match={self.p_match})"


class GeneralDiscreteReplication(ReplicationModel):
    """Arbitrary finite distribution over replication grades.

    Extension beyond the paper: supports trace-derived or hand-crafted
    replication profiles (e.g. a presence service where most updates go to a
    handful of friends and a few go to thousands of followers).
    """

    def __init__(self, pmf: Mapping[int, float]):
        if not pmf:
            raise ValueError("pmf must be non-empty")
        cleaned: Dict[int, float] = {}
        for grade, probability in pmf.items():
            if grade < 0 or int(grade) != grade:
                raise ValueError(f"replication grades must be non-negative integers, got {grade}")
            if probability < 0:
                raise ValueError(f"probabilities must be non-negative, got {probability}")
            if probability > 0:
                cleaned[int(grade)] = cleaned.get(int(grade), 0.0) + float(probability)
        total = sum(cleaned.values())
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        self._grades = np.array(sorted(cleaned), dtype=np.int64)
        self._probs = np.array([cleaned[g] / total for g in sorted(cleaned)])

    @property
    def moments(self) -> Moments:
        grades = self._grades.astype(float)
        return Moments(
            float(np.dot(self._probs, grades)),
            float(np.dot(self._probs, grades**2)),
            float(np.dot(self._probs, grades**3)),
        )

    def pmf(self, k: int) -> float:
        idx = np.searchsorted(self._grades, k)
        if idx < len(self._grades) and self._grades[idx] == k:
            return float(self._probs[idx])
        return 0.0

    def distribution(self, tail_mass: float = 1e-12) -> List[Tuple[int, float]]:
        return [(int(g), float(p)) for g, p in zip(self._grades, self._probs)]

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self._grades, p=self._probs))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self._grades, p=self._probs, size=size).astype(np.int64)

    def __repr__(self) -> str:
        support = ", ".join(f"{g}:{p:.3g}" for g, p in zip(self._grades, self._probs))
        return f"GeneralDiscreteReplication({{{support}}})"
