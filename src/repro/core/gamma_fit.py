"""Two-moment Gamma fit used for the waiting-time distribution.

The paper approximates the conditional waiting time of delayed messages by
a Gamma distribution fitted to its first two moments (Section IV-B.4):
shape ``α = 1 / c_var[W₁]²`` and scale ``β = E[W₁] / α``.  The fit is exact
for exponential service and very accurate otherwise [23].

The degenerate case ``c_var = 0`` (deterministic replication at ρ where the
constant part dominates) is handled explicitly as a point mass, which is the
``α → ∞`` limit of the Gamma family.

Fitting needs only the moments; the incomplete Gamma function behind
``cdf`` / ``ccdf`` / ``ppf`` is scipy's, taken when one of them is called,
so importing the model does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import Moments

__all__ = ["FittedGamma"]


def _special():
    """``scipy.special``, or an ``ImportError`` that names the extra."""
    try:
        from scipy import special
    except ImportError as exc:
        raise ImportError(
            "the Gamma tail (FittedGamma.cdf / ccdf / ppf) needs scipy;"
            " install the repro[fast] extra"
        ) from exc
    return special


@dataclass(frozen=True)
class FittedGamma:
    """A Gamma law ``Γ(shape, scale)``; ``shape = inf`` is a point mass.

    Attributes
    ----------
    shape:
        α parameter; ``math.inf`` denotes the deterministic limit.
    scale:
        β parameter; for the deterministic limit the point mass sits at
        ``mean`` (stored in :attr:`point`).
    point:
        Location of the point mass when degenerate, else ``nan``.
    """

    shape: float
    scale: float
    point: float = math.nan

    def __post_init__(self) -> None:
        if not self.degenerate:
            if self.shape <= 0 or self.scale <= 0:
                raise ValueError(
                    f"shape and scale must be positive, got {self.shape}, {self.scale}"
                )
        elif self.point < 0 or math.isnan(self.point):
            raise ValueError(f"degenerate fit needs a non-negative point, got {self.point}")

    @property
    def degenerate(self) -> bool:
        return math.isinf(self.shape)

    @property
    def mean(self) -> float:
        if self.degenerate:
            return self.point
        return self.shape * self.scale

    @property
    def cvar(self) -> float:
        if self.degenerate:
            return 0.0
        return 1.0 / math.sqrt(self.shape)

    # ------------------------------------------------------------------
    @classmethod
    def from_mean_cvar(cls, mean: float, cvar: float, *, cvar_floor: float = 1e-6) -> "FittedGamma":
        """Fit from mean and coefficient of variation (the paper's recipe)."""
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if cvar < 0:
            raise ValueError(f"cvar must be non-negative, got {cvar}")
        if mean == 0 or cvar < cvar_floor:
            return cls(shape=math.inf, scale=0.0, point=mean)
        shape = 1.0 / cvar**2
        scale = mean / shape
        return cls(shape=shape, scale=scale)

    @classmethod
    def from_moments(cls, moments: Moments) -> "FittedGamma":
        return cls.from_mean_cvar(moments.mean, moments.cvar)

    @classmethod
    def from_first_two(cls, m1: float, m2: float) -> "FittedGamma":
        """Fit from raw moments ``E[X]`` and ``E[X²]``."""
        if m1 < 0 or m2 < 0:
            raise ValueError(f"moments must be non-negative, got {m1}, {m2}")
        variance = max(0.0, m2 - m1**2)
        if m1 == 0:
            return cls(shape=math.inf, scale=0.0, point=0.0)
        return cls.from_mean_cvar(m1, math.sqrt(variance) / m1)

    # ------------------------------------------------------------------
    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """``P(X <= t)``."""
        t = np.asarray(t, dtype=float)
        if self.degenerate:
            out = np.where(t >= self.point, 1.0, 0.0)
        else:
            out = np.where(t <= 0, 0.0, _special().gammainc(self.shape, np.maximum(t, 0) / self.scale))
        return out if out.ndim else float(out)

    def ccdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """``P(X > t)``."""
        t = np.asarray(t, dtype=float)
        if self.degenerate:
            out = np.where(t >= self.point, 0.0, 1.0)
        else:
            out = np.where(t <= 0, 1.0, _special().gammaincc(self.shape, np.maximum(t, 0) / self.scale))
        return out if out.ndim else float(out)

    def ppf(self, p: float) -> float:
        """Quantile function ``inf{t : P(X <= t) >= p}``."""
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if self.degenerate:
            return self.point
        if p == 0:
            return 0.0
        if p == 1:
            return math.inf
        return float(_special().gammaincinv(self.shape, p) * self.scale)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples (scalar when ``size is None``)."""
        if self.degenerate:
            if size is None:
                return self.point
            return np.full(size, self.point)
        draw = rng.gamma(self.shape, self.scale, size=size)
        return float(draw) if size is None else draw
