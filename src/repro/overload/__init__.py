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

The package root exports the primitives a running broker uses.  The two
laboratory modules, ``mg1k`` (numpy) and ``experiment`` (the testbed,
which itself imports these primitives), are imported by module path.
"""

from __future__ import annotations

from .admission import AdmissionController
from .bounded import BoundedMessageQueue, ShedEvent
from .health import HealthMonitor, HealthState, HealthThresholds
from .policy import OverloadConfig
from .survivor import SurvivorTrajectory, survivor_rho_trajectory

__all__ = [
    "AdmissionController",
    "BoundedMessageQueue",
    "HealthMonitor",
    "HealthState",
    "HealthThresholds",
    "OverloadConfig",
    "ShedEvent",
    "SurvivorTrajectory",
    "survivor_rho_trajectory",
]
