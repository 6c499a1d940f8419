"""Survivor load jump: what failover does to the health state machine.

When a replicated pair fails over — or a PSR/SSR server dies and its
publishers re-home — each surviving server's utilization jumps from
``rho_before`` to ``rho_after`` in one step (optionally ramping over
``ramp`` seconds as clients reconnect).  This module drives the
:class:`~repro.overload.health.HealthMonitor` FSM through that jump and
reports the transition trace: when the survivor is first flagged
DEGRADED/OVERLOADED/SHEDDING, and whether the escalation is permanent
(``rho_after`` above a threshold) or transient (hysteresis + dwell pull
it back down after the ramp).

The trajectory is the overload-side view of a failover: the capacity
models (:mod:`repro.mesh.capacity`, :mod:`repro.replication.model`) say
whether the survivors *can* carry the load; the trajectory says what
their health telemetry does while they absorb it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .health import HealthMonitor, HealthState, HealthThresholds

__all__ = ["SurvivorTrajectory", "survivor_rho_trajectory"]


@dataclass(frozen=True)
class SurvivorTrajectory:
    """Health FSM trace of one survivor absorbing a failover jump."""

    rho_before: float
    rho_after: float
    failover_at: float
    #: ``(time, old_state, new_state)`` transitions, in order.
    transitions: Tuple[Tuple[float, HealthState, HealthState], ...]
    #: State at the end of the horizon.
    final_state: HealthState
    #: First time each severity was entered (state name → time).
    time_to_state: Dict[str, float]

    @property
    def escalations(self) -> int:
        return sum(1 for _t, old, new in self.transitions if new > old)

    def detection_delay(self, state: HealthState) -> Optional[float]:
        """Seconds from the failover until ``state`` was first entered."""
        entered = self.time_to_state.get(state.name)
        if entered is None:
            return None
        return max(entered - self.failover_at, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rho_before": self.rho_before,
            "rho_after": self.rho_after,
            "failover_at": self.failover_at,
            "final_state": self.final_state.name,
            "escalations": self.escalations,
            "time_to_state": dict(self.time_to_state),
            "transitions": [
                {"time": t, "from": old.name, "to": new.name}
                for t, old, new in self.transitions
            ],
        }


def survivor_rho_trajectory(
    rho_before: float,
    rho_after: float,
    failover_at: float,
    horizon: float,
    thresholds: Optional[HealthThresholds] = None,
    ramp: float = 0.0,
    dt: float = 0.05,
) -> SurvivorTrajectory:
    """Step a :class:`HealthMonitor` through a failover utilization jump.

    Utilization is ``rho_before`` until ``failover_at``, then ramps
    linearly to ``rho_after`` over ``ramp`` seconds (0: a step) and
    holds until ``horizon``.
    """
    for name, value in (("rho_before", rho_before), ("rho_after", rho_after)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    if not 0 <= failover_at < horizon:
        raise ValueError(
            f"failover_at must be in [0, horizon={horizon}), got {failover_at}"
        )
    if ramp < 0 or not math.isfinite(ramp):
        raise ValueError(f"ramp must be finite and non-negative, got {ramp}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    monitor = HealthMonitor(thresholds)
    time_to_state: Dict[str, float] = {}
    steps = int(round(horizon / dt))
    for i in range(steps + 1):
        now = i * dt
        if now < failover_at:
            pressure = rho_before
        elif ramp > 0 and now < failover_at + ramp:
            pressure = rho_before + (rho_after - rho_before) * (
                (now - failover_at) / ramp
            )
        else:
            pressure = rho_after
        state = monitor.observe(pressure, now)
        time_to_state.setdefault(state.name, now)
    return SurvivorTrajectory(
        rho_before=rho_before,
        rho_after=rho_after,
        failover_at=failover_at,
        transitions=tuple(monitor.history),
        final_state=monitor.state,
        time_to_state=time_to_state,
    )
