"""Arrival-process sensitivity study (extension beyond the paper).

The paper justifies Poisson arrivals by the human-triggered nature of the
traffic and never varies the arrival process.  This study quantifies what
changes when arrivals are smoother (Erlang) or burstier
(hyperexponential) than Poisson: the Kingman approximation predicts the
mean wait scales with ``(c_a² + c_s²)/2``, and simulation (the Lindley
recursion of :mod:`repro.simulation.queueing`) confirms it on the paper's own service-time models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.gg1 import GG1Approximation
from ..core.mg1 import MG1Queue
from ..core.params import CORRELATION_ID_COSTS, CostParameters
from ..core.service_time import ReplicationFamily
from ..simulation.distributions import Distribution, Erlang, Exponential, Hyperexponential
from ..simulation.queueing import simulate_gg1
from .study import service_model_for_cvar

__all__ = ["ArrivalCase", "SensitivityRow", "arrival_sensitivity_study", "balanced_h2"]


def balanced_h2(rate: float, scv: float) -> Hyperexponential:
    """A two-branch hyperexponential with balanced means and target SCV.

    Standard construction: branch probabilities
    ``p = (1 ± sqrt((c²−1)/(c²+1))) / 2`` with rates ``2·p·rate``; gives
    mean ``1/rate`` and squared coefficient of variation ``scv`` (> 1).
    """
    if scv <= 1:
        raise ValueError(f"hyperexponential needs SCV > 1, got {scv}")
    skew = np.sqrt((scv - 1) / (scv + 1))
    p1 = (1 + skew) / 2
    p2 = 1 - p1
    return Hyperexponential(
        rates=[2 * p1 * rate, 2 * p2 * rate], probabilities=[p1, p2]
    )


@dataclass(frozen=True)
class ArrivalCase:
    """One arrival-process variant of the study."""

    label: str
    interarrival: Distribution

    @property
    def scv(self) -> float:
        return self.interarrival.cvar**2


@dataclass(frozen=True)
class SensitivityRow:
    """Study outcome for one arrival process."""

    label: str
    arrival_scv: float
    kingman_normalized_wait: float
    simulated_normalized_wait: float
    poisson_normalized_wait: float

    @property
    def vs_poisson(self) -> float:
        """Simulated wait relative to the paper's Poisson prediction."""
        return self.simulated_normalized_wait / self.poisson_normalized_wait


def default_cases(rate: float) -> List[ArrivalCase]:
    return [
        # Erlang-k has mean k/stage-rate, so the stage rate is 4*rate.
        ArrivalCase("Erlang-4 (smooth, ca2=0.25)", Erlang(k=4, rate=4 * rate)),
        ArrivalCase("Poisson (paper, ca2=1)", Exponential(rate=rate)),
        ArrivalCase("H2 bursty (ca2=4)", balanced_h2(rate, 4.0)),
    ]


def arrival_sensitivity_study(
    rho: float = 0.8,
    cvar_b: float = 0.2,
    costs: CostParameters = CORRELATION_ID_COSTS,
    horizon_services: float = 300_000,
    seed: int = 20,
    cases: Sequence[ArrivalCase] | None = None,
) -> List[SensitivityRow]:
    """Run the study: analytic Kingman vs. simulation per arrival case."""
    model = service_model_for_cvar(costs, cvar_b, family=ReplicationFamily.BINOMIAL)
    moments = model.moments
    rate = rho / moments.m1
    poisson = MG1Queue.from_utilization(rho, moments)
    rows: List[SensitivityRow] = []
    for case in cases if cases is not None else default_cases(rate):
        kingman = GG1Approximation(
            arrival_rate=rate, arrival_scv=case.scv, service=moments
        )
        result = simulate_gg1(
            interarrival=case.interarrival,
            service=model,
            rng=np.random.default_rng(seed),
            horizon=moments.m1 * horizon_services,
        )
        rows.append(
            SensitivityRow(
                label=case.label,
                arrival_scv=case.scv,
                kingman_normalized_wait=kingman.normalized_mean_wait,
                simulated_normalized_wait=result.mean_wait / moments.m1,
                poisson_normalized_wait=poisson.normalized_mean_wait,
            )
        )
    return rows
