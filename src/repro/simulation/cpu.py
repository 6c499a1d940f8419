"""Virtual CPU cost model — the simulated 3.2 GHz server machine.

The paper's testbed charges real CPU cycles; our substitute charges virtual
time per broker operation using the Table I constants: ``t_rcv`` per
received message, ``t_fltr`` per filter evaluated and ``t_tx`` per copy
dispatched.  An optional multiplicative jitter models the (small)
run-to-run variation the paper reports as "very narrow confidence
intervals"; the calibration harness must recover the constants despite it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.params import CostParameters

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CpuCostModel", "CostBreakdown"]


@dataclass(frozen=True)
class CostBreakdown:
    """Virtual CPU time charged for one message, split by operation."""

    receive: float
    filtering: float
    transmit: float

    @property
    def total(self) -> float:
        return self.receive + self.filtering + self.transmit


class CpuCostModel:
    """Charge virtual CPU time for broker operations.

    Parameters
    ----------
    costs:
        Table I constants for the filter type in use.
    jitter_cvar:
        Coefficient of variation of a multiplicative lognormal noise applied
        to each charge (0 disables noise).  Keep it small (≤ 0.05): the real
        testbed's repeated runs "hardly differ".
    rng:
        Generator for the jitter; required when ``jitter_cvar > 0``.
    """

    def __init__(
        self,
        costs: CostParameters,
        jitter_cvar: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        per_byte_cost: float = 0.0,
    ):
        if jitter_cvar < 0:
            raise ValueError(f"jitter_cvar must be non-negative, got {jitter_cvar}")
        if jitter_cvar > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        if per_byte_cost < 0:
            raise ValueError(f"per_byte_cost must be non-negative, got {per_byte_cost}")
        self.costs = costs
        self.jitter_cvar = float(jitter_cvar)
        #: Extension beyond Table I: CPU seconds per payload byte, charged
        #: once on receive and once per dispatched copy.  Models the
        #: paper's §III-B.1 finding that "the message size has a
        #: significant impact on the message throughput" (the paper's own
        #: model uses 0-byte bodies, so the default is 0).
        self.per_byte_cost = float(per_byte_cost)
        self._rng = rng
        if jitter_cvar > 0:
            # Lognormal with unit mean and the requested cvar.
            sigma2 = math.log1p(jitter_cvar**2)
            self._mu = -0.5 * sigma2
            self._sigma = math.sqrt(sigma2)
        else:
            self._mu = 0.0
            self._sigma = 0.0

    def _jitter(self) -> float:
        if self._sigma == 0.0:
            return 1.0
        assert self._rng is not None
        return float(self._rng.lognormal(self._mu, self._sigma))

    def message_cost(
        self, filters_evaluated: int, copies_sent: int, payload_bytes: int = 0
    ) -> CostBreakdown:
        """Cost of processing one message end to end.

        ``filters_evaluated`` is the number of installed filters checked
        (FioranoMQ checks *every* filter — no identical-filter optimization)
        and ``copies_sent`` the resulting replication grade ``R``.
        ``payload_bytes`` only matters when the model carries a per-byte
        cost (message-size ablation).
        """
        if filters_evaluated < 0 or copies_sent < 0 or payload_bytes < 0:
            raise ValueError(
                f"negative operation counts: filters={filters_evaluated}, "
                f"copies={copies_sent}, bytes={payload_bytes}"
            )
        byte_cost = self.per_byte_cost * payload_bytes
        return CostBreakdown(
            receive=(self.costs.t_rcv + byte_cost) * self._jitter(),
            filtering=self.costs.t_fltr * filters_evaluated * self._jitter(),
            transmit=(self.costs.t_tx + byte_cost) * copies_sent * self._jitter(),
        )

    def expected_service_time(
        self, n_fltr: int, mean_replication: float, payload_bytes: int = 0
    ) -> float:
        """Noise-free ``E[B]`` (Eq. 1, plus the byte extension if set)."""
        byte_cost = self.per_byte_cost * payload_bytes
        return (
            self.costs.t_rcv
            + byte_cost
            + n_fltr * self.costs.t_fltr
            + mean_replication * (self.costs.t_tx + byte_cost)
        )
