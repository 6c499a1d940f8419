"""The paper's message processing-time model (Section III-B.2b).

The service time of one message at the JMS server is

    ``B = t_rcv + n_fltr · t_fltr + R · t_tx``                    (Eq. 1)

with a constant part ``D = t_rcv + n_fltr · t_fltr`` (receive overhead plus
one filter evaluation per installed filter) and a variable part ``R · t_tx``
(one transmission per matched subscriber).  The first three moments of ``B``
follow from the moments of ``R`` (Eqs. 7–9).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .moments import Moments, shifted_scaled_moments
from .params import CostParameters
from .replication import (
    BinomialReplication,
    DeterministicReplication,
    ReplicationModel,
    ScaledBernoulliReplication,
)

__all__ = ["ServiceTimeModel", "ReplicationFamily"]


class ReplicationFamily(enum.Enum):
    """Distribution family used to complete the third moment of ``R``."""

    DETERMINISTIC = "deterministic"
    SCALED_BERNOULLI = "scaled_bernoulli"
    BINOMIAL = "binomial"

    def model(self, n_fltr: int, mean_replication: float) -> ReplicationModel:
        """This family's distribution of ``R`` with mean ``E[R]``.

        ``n_fltr`` is the family's filter-count parameter ``n`` (the
        deterministic family ignores it and needs an integer ``E[R]``).
        """
        if self is ReplicationFamily.DETERMINISTIC:
            r = round(mean_replication)
            if abs(r - mean_replication) > 1e-9:
                raise ValueError(
                    f"deterministic family needs an integer E[R], got {mean_replication}"
                )
            return DeterministicReplication(int(r))
        p_match = mean_replication / n_fltr
        if not 0 <= p_match <= 1:
            raise ValueError(f"E[R]={mean_replication} unreachable with n_fltr={n_fltr}")
        if self is ReplicationFamily.SCALED_BERNOULLI:
            return ScaledBernoulliReplication(n_fltr, p_match)
        return BinomialReplication(n_fltr, p_match)


@dataclass(frozen=True)
class ServiceTimeModel:
    """Service time ``B`` for a given cost table, filter count and ``R`` model.

    Example
    -------
    >>> from repro.core import CORRELATION_ID_COSTS, BinomialReplication
    >>> model = ServiceTimeModel(CORRELATION_ID_COSTS, n_fltr=100,
    ...                          replication=BinomialReplication(100, 0.1))
    >>> round(model.mean * 1e6, 1)  # microseconds
    872.9
    """

    costs: CostParameters
    n_fltr: int
    replication: ReplicationModel
    #: Amortized persistence cost per message, ``t_sync / b`` for a sync
    #: every ``b`` messages (``repro.durability``).  The paper measured the
    #: persistent mode but modelled only CPU work; a durable broker also
    #: pays the journal fsync, which lands in the deterministic part of
    #: Eq. 1 because it is incurred once per received message regardless
    #: of the replication grade.  0 (the default) recovers the paper's
    #: original model exactly.
    sync_overhead: float = 0.0
    #: Amortized synchronous-replication ack cost per message, ``t_ship/b``
    #: for a shipped frame covering ``b`` records (``repro.replication``).
    #: Like the fsync cost it is paid once per received message regardless
    #: of the replication grade, so it lands in the deterministic part of
    #: Eq. 1.  0 (the default, and async-mode shipping) changes nothing.
    replication_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.n_fltr < 0 or int(self.n_fltr) != self.n_fltr:
            raise ValueError(f"n_fltr must be a non-negative integer, got {self.n_fltr}")
        if not self.sync_overhead >= 0:  # also rejects NaN
            raise ValueError(
                f"sync_overhead must be non-negative, got {self.sync_overhead}"
            )
        if not self.replication_overhead >= 0:  # also rejects NaN
            raise ValueError(
                f"replication_overhead must be non-negative, got "
                f"{self.replication_overhead}"
            )

    @property
    def deterministic_part(self) -> float:
        """``D = t_rcv + n_fltr · t_fltr + t_sync/b + t_ship/b`` per message."""
        return (
            self.costs.t_rcv
            + self.n_fltr * self.costs.t_fltr
            + self.sync_overhead
            + self.replication_overhead
        )

    @property
    def moments(self) -> Moments:
        """Raw moments of ``B`` (Eqs. 7–9)."""
        return shifted_scaled_moments(
            self.deterministic_part, self.costs.t_tx, self.replication.moments
        )

    @property
    def mean(self) -> float:
        """``E[B]`` (Eq. 1)."""
        return self.moments.m1

    @property
    def cvar(self) -> float:
        """``c_var[B]`` (Eq. 10)."""
        return self.moments.cvar

    def service_distribution(self, tail_mass: float = 1e-12) -> List[Tuple[float, float]]:
        """Exact discrete distribution of ``B`` as ``[(time, probability), …]``.

        Because ``R`` is integer-valued, Eq. 1 makes ``B`` discrete with
        support ``{D + k·t_tx : P(R = k) > 0}``.  This exactness is what
        lets the M/G/1/K model (:mod:`repro.overload.mg1k`) build its
        embedded Markov chain without numerical transform inversion.
        """
        d, t = self.deterministic_part, self.costs.t_tx
        return [(d + grade * t, p) for grade, p in self.replication.distribution(tail_mass)]

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one service time by sampling the replication grade."""
        return self.deterministic_part + self.replication.sample(rng) * self.costs.t_tx

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        grades = self.replication.sample_many(rng, size)
        return self.deterministic_part + grades * self.costs.t_tx

    def with_replication(self, replication: ReplicationModel) -> "ServiceTimeModel":
        return ServiceTimeModel(
            self.costs,
            self.n_fltr,
            replication,
            self.sync_overhead,
            self.replication_overhead,
        )

    def with_sync_overhead(self, sync_overhead: float) -> "ServiceTimeModel":
        """The same model paying ``sync_overhead`` per message for durability."""
        return ServiceTimeModel(
            self.costs,
            self.n_fltr,
            self.replication,
            sync_overhead,
            self.replication_overhead,
        )

    def with_replication_overhead(self, replication_overhead: float) -> "ServiceTimeModel":
        """The same model paying ``t_ship/b`` per message for sync shipping."""
        return ServiceTimeModel(
            self.costs,
            self.n_fltr,
            self.replication,
            self.sync_overhead,
            replication_overhead,
        )

    @classmethod
    def with_mean_replication(
        cls, costs: CostParameters, n_fltr: int, mean_replication: float
    ) -> "ServiceTimeModel":
        """Model using only ``E[R]`` — enough for Eq. 1 mean/capacity studies.

        Uses a deterministic replication model when ``mean_replication`` is
        an integer, otherwise a two-point distribution with the exact mean.
        """
        if mean_replication < 0:
            raise ValueError(f"mean replication must be >= 0, got {mean_replication}")
        if float(mean_replication).is_integer():
            replication: ReplicationModel = DeterministicReplication(int(mean_replication))
        else:
            from .replication import GeneralDiscreteReplication

            low = math.floor(mean_replication)
            frac = mean_replication - low
            replication = GeneralDiscreteReplication({low: 1 - frac, low + 1: frac})
        return cls(costs, n_fltr, replication)
