"""Message-processing cost parameters (the paper's Table I).

The paper measures the FioranoMQ 7.5 server on a 3.2 GHz machine and fits
three constants per filter type:

====================  ============  ============  ============
overhead type         ``t_rcv`` (s)  ``t_fltr`` (s)  ``t_tx`` (s)
====================  ============  ============  ============
correlation-ID        8.52e-7       7.02e-6       1.70e-5
application property  4.10e-6       1.46e-5       1.62e-5
====================  ============  ============  ============

``t_rcv`` is charged once per received message, ``t_fltr`` once per
installed filter and message, and ``t_tx`` once per dispatched copy
(Eq. 1).  These constants parameterise both the analytical model
(:mod:`repro.core.service_time`) and the simulated CPU
(:mod:`repro.simulation.cpu`).  :class:`FilterType` lives in the
leaf :mod:`repro.filter_type`, shared with the broker's filters; it is
re-exported here because every cost row is keyed by it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..filter_type import FilterType

__all__ = ["FilterType", "CostParameters", "CORRELATION_ID_COSTS", "APP_PROPERTY_COSTS", "costs_for"]


@dataclass(frozen=True)
class CostParameters:
    """Per-operation CPU costs of a JMS server (Table I).

    Attributes
    ----------
    t_rcv:
        Fixed overhead per received message, seconds.
    t_fltr:
        Overhead per installed filter checked per message, seconds.
    t_tx:
        Overhead per forwarded message copy, seconds.
    filter_type:
        Which filter mechanism these constants describe.
    """

    t_rcv: float
    t_fltr: float
    t_tx: float
    filter_type: FilterType

    def __post_init__(self) -> None:
        for name in ("t_rcv", "t_fltr", "t_tx"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def scaled(self, factor: float) -> "CostParameters":
        """Costs for a CPU ``factor`` times slower (>1) or faster (<1)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return CostParameters(
            t_rcv=self.t_rcv * factor,
            t_fltr=self.t_fltr * factor,
            t_tx=self.t_tx * factor,
            filter_type=self.filter_type,
        )


#: Table I, row "corr. ID filtering".
CORRELATION_ID_COSTS = CostParameters(
    t_rcv=8.52e-7, t_fltr=7.02e-6, t_tx=1.70e-5, filter_type=FilterType.CORRELATION_ID
)

#: Table I, row "app. prop. filtering".
APP_PROPERTY_COSTS = CostParameters(
    t_rcv=4.10e-6, t_fltr=1.46e-5, t_tx=1.62e-5, filter_type=FilterType.APP_PROPERTY
)


def costs_for(filter_type: FilterType) -> CostParameters:
    """Return the Table I constants for ``filter_type``."""
    if filter_type is FilterType.CORRELATION_ID:
        return CORRELATION_ID_COSTS
    if filter_type is FilterType.APP_PROPERTY:
        return APP_PROPERTY_COSTS
    raise ValueError(f"unknown filter type {filter_type!r}")
