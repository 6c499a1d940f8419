"""Analytic RPO/RTO and ack-cost models for the replicated pair.

Definitions (matching DESIGN §13):

- **RPO** (recovery point objective) — client-acked records lost by a
  failover, measured in records.  Sync replication acks only after the
  standby applied, so its RPO is 0 by construction.  Async replication
  acks on local fsync; the loss window is the *shipped lag*: records
  acked but not yet applied at the standby when the primary dies.
- **RTO** (recovery time objective) — time from the primary's failure to
  the standby serving traffic: lease-expiry detection plus promotion
  replay over the warm replica.

Both are first-moment models, built to be checked against the DES sweep
in :mod:`repro.replication.experiment`:

- The shipper flushes a frame every ``T = min(ship_interval, b/λ)``
  seconds (interval timeout versus batch fill at arrival rate λ).  A
  record acked at a uniformly random point of a flush period waits
  ``T/2`` on average, then ``link_delay`` in flight, so the async loss
  window holds ``λ·(T/2 + link_delay)`` records on average.
- Detection: the primary renews every ``renew_interval``; a crash at a
  uniform phase of the renewal cycle leaves on average
  ``lease_duration − renew_interval/2`` until expiry.
- Replay: the promotion recovery pass replays the standby's journal at
  ``replay_rate`` records/second (measured, not assumed — the bench
  recorder feeds it from timed recovery runs).  The replica compacts at
  every shipped CHECKPOINT, so what it replays is bounded by the
  checkpoint interval, not by uptime.

Sync replication's ack cost folds into Eq. 1 the same way the fsync cost
did: one shipped frame covers ``b`` records, so the per-message ack
overhead is ``t_ship/b`` (:func:`amortized_ship_overhead`), landing in
the deterministic part of ``B`` via
:attr:`repro.core.service_time.ServiceTimeModel.replication_overhead`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict


__all__ = [
    "ReplicationLagModel",
    "amortized_ship_overhead",
]

_MODES = ("sync", "async")


@dataclass(frozen=True)
class ReplicationLagModel:
    """First-moment RPO/RTO model of one replicated pair."""

    mode: str
    ship_interval: float
    batch_size: int
    #: Journal-record arrival rate λ at the primary (records/second).
    rate: float
    link_delay: float
    lease_duration: float
    renew_interval: float
    #: Promotion replay speed (records/second), measured from timed runs.
    replay_rate: float
    #: Records promotion must replay: those on the replica since its last
    #: checkpoint, plus the snapshot record itself.
    standby_records: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("ship_interval", "rate", "lease_duration", "renew_interval",
                     "replay_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.link_delay) and self.link_delay >= 0):
            raise ValueError(
                f"link_delay must be finite and non-negative, got {self.link_delay}"
            )
        if self.batch_size < 1 or int(self.batch_size) != self.batch_size:
            raise ValueError(
                f"batch_size must be a positive integer, got {self.batch_size}"
            )
        if self.standby_records < 0:
            raise ValueError(
                f"standby_records must be >= 0, got {self.standby_records}"
            )
        if self.renew_interval >= self.lease_duration:
            raise ValueError(
                f"renew_interval {self.renew_interval} must be below the "
                f"lease duration {self.lease_duration}"
            )

    @property
    def flush_period(self) -> float:
        """``T = min(ship_interval, b/λ)`` — time between frame flushes."""
        return min(self.ship_interval, self.batch_size / self.rate)

    @property
    def rpo_records(self) -> float:
        """Mean client-acked records lost by a primary crash."""
        if self.mode == "sync":
            return 0.0
        return self.rate * (self.flush_period / 2 + self.link_delay)

    @property
    def detection_seconds(self) -> float:
        """Mean time from crash to lease expiry (uniform renewal phase)."""
        return self.lease_duration - self.renew_interval / 2

    @property
    def replay_seconds(self) -> float:
        """Promotion replay time over the warm replica."""
        return self.standby_records / self.replay_rate

    @property
    def rto_seconds(self) -> float:
        """Mean failover time: detection plus promotion replay."""
        return self.detection_seconds + self.replay_seconds

    @property
    def ack_wait_seconds(self) -> float:
        """Mean time a *sync-mode* send waits for the standby's ack.

        The record joins a frame that flushes after half a flush period
        on average, then pays the link both ways; async mode acks the
        client immediately (the deadline pipeline of
        :mod:`repro.resilience.deadline` charges this stage against the
        message's budget, so under-provisioned deadlines die here
        instead of at the consumer).
        """
        if self.mode != "sync":
            return 0.0
        return self.flush_period / 2 + 2 * self.link_delay

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "ship_interval": self.ship_interval,
            "batch_size": self.batch_size,
            "rate": self.rate,
            "link_delay": self.link_delay,
            "flush_period": self.flush_period,
            "rpo_records": self.rpo_records,
            "detection_seconds": self.detection_seconds,
            "replay_seconds": self.replay_seconds,
            "rto_seconds": self.rto_seconds,
            "ack_wait_seconds": self.ack_wait_seconds,
        }


def amortized_ship_overhead(t_ship: float, batch: int) -> float:
    """Per-message sync-replication ack cost ``t_ship / b``.

    One shipped frame round-trip (``t_ship``) covers ``b`` records, so
    the per-message share mirrors the durability layer's ``t_sync/b``.
    """
    if t_ship < 0 or not math.isfinite(t_ship):
        raise ValueError(f"t_ship must be finite and non-negative, got {t_ship}")
    if batch < 1 or int(batch) != batch:
        raise ValueError(f"batch must be a positive integer, got {batch}")
    return t_ship / batch
