"""Overload control and graceful degradation.

The paper's server never drops a message: push-back blocks the
publishers and the analysis assumes an infinite buffer (M/G/1-∞,
Eqs. 4–5).  This package models what happens when that assumption is
deliberately broken — a production broker that *bounds* its buffers and
*sheds* load instead of letting latency diverge:

- :mod:`~repro.overload.bounded` — bounded ingress buffers with
  ``drop-new`` / ``drop-oldest`` / ``deadline-shed`` overflow policies;
- :mod:`~repro.overload.admission` — EWMA utilization estimation with
  watermark-based publisher rejection;
- :mod:`~repro.overload.health` — the HEALTHY → DEGRADED → OVERLOADED →
  SHEDDING state machine with hysteresis;
- :mod:`~repro.overload.mg1k` — the exact M/G/1/K loss model (loss
  probability, effective throughput, conditional wait of accepted
  messages), valid for offered loads above 1;
- :mod:`~repro.overload.experiment` — discrete-event overload runs that
  cross-validate the M/G/1/K model across ρ ∈ [0.5, 1.5].

The experiment symbols are exported lazily: they pull in
:mod:`repro.testbed.simserver`, which itself imports this package's
primitives, so an eager import here would be circular.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .admission import AdmissionController
from .bounded import BoundedMessageQueue, ShedEvent
from .health import HealthMonitor, HealthState, HealthThresholds
from .mg1k import MG1KQueue
from .policy import OverloadConfig
from .survivor import SurvivorTrajectory, survivor_rho_trajectory

if TYPE_CHECKING:  # pragma: no cover - import cycle exists only at runtime
    from .experiment import (
        OverloadExperimentConfig,
        OverloadRunResult,
        run_overload_experiment,
        sweep_overload,
    )

__all__ = [
    "AdmissionController",
    "BoundedMessageQueue",
    "HealthMonitor",
    "HealthState",
    "HealthThresholds",
    "MG1KQueue",
    "OverloadConfig",
    "OverloadExperimentConfig",
    "OverloadRunResult",
    "ShedEvent",
    "SurvivorTrajectory",
    "run_overload_experiment",
    "survivor_rho_trajectory",
    "sweep_overload",
]

_LAZY = {
    "OverloadExperimentConfig",
    "OverloadRunResult",
    "run_overload_experiment",
    "sweep_overload",
}


def __getattr__(name: str):
    if name in _LAZY:
        from . import experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
