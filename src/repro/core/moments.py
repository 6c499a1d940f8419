"""Moment algebra shared by the analytical model.

The waiting-time analysis needs the first three raw moments of the service
time, assembled from the moments of the replication grade (Eqs. 7–9), and
the conversion between raw moments, variance and coefficient of variation
(Eq. 10).  Keeping this algebra in one place lets the property-based tests
state its invariants once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Moments", "relative_error", "shifted_scaled_moments"]


def relative_error(measured: float, model: float, floor: float = 0.0) -> float:
    """``|measured − model|`` relative to ``|model|``.

    ``floor`` keeps a tiny model value from blowing the ratio up; where
    model and floor are both zero there is no scale to be relative to,
    and the absolute error is returned.
    """
    scale = max(abs(model), floor)
    if scale == 0:
        return abs(measured)
    return abs(measured - model) / scale


@dataclass(frozen=True)
class Moments:
    """First three raw moments of a non-negative random variable."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self) -> None:
        if self.m1 < 0 or self.m2 < 0 or self.m3 < 0:
            raise ValueError(f"raw moments of a non-negative variable must be >= 0: {self}")
        # Jensen: E[X^2] >= E[X]^2 (allow tiny numerical slack).
        if self.m2 < self.m1**2 * (1 - 1e-9) - 1e-30:
            raise ValueError(f"inconsistent moments: m2={self.m2} < m1^2={self.m1 ** 2}")

    @property
    def mean(self) -> float:
        return self.m1

    @property
    def variance(self) -> float:
        return max(0.0, self.m2 - self.m1**2)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cvar(self) -> float:
        """Coefficient of variation (Eq. 10); 0 when the mean is 0."""
        if self.m1 == 0:
            return 0.0
        return self.std / self.m1

    def moment(self, k: int) -> float:
        if k == 1:
            return self.m1
        if k == 2:
            return self.m2
        if k == 3:
            return self.m3
        raise ValueError(f"moment order must be 1, 2 or 3, got {k}")

    @classmethod
    def deterministic(cls, value: float) -> "Moments":
        """Moments of a constant."""
        return cls(value, value**2, value**3)


def shifted_scaled_moments(constant: float, scale: float, inner: Moments) -> Moments:
    """Moments of ``constant + scale * X`` given the moments of ``X``.

    This is exactly the paper's Eqs. 7–9 with ``constant = D`` (the fixed
    part ``t_rcv + n_fltr * t_fltr``), ``scale = t_tx`` and ``X = R``:

    - ``E[B]   = D + t·E[R]``
    - ``E[B²]  = D² + 2·D·t·E[R] + t²·E[R²]``
    - ``E[B³]  = D³ + 3·D²·t·E[R] + 3·D·t²·E[R²] + t³·E[R³]``
    """
    if constant < 0:
        raise ValueError(f"constant must be non-negative, got {constant}")
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    d, t = float(constant), float(scale)
    m1 = d + t * inner.m1
    m2 = d**2 + 2 * d * t * inner.m1 + t**2 * inner.m2
    m3 = d**3 + 3 * d**2 * t * inner.m1 + 3 * d * t**2 * inner.m2 + t**3 * inner.m3
    return Moments(m1, m2, m3)
