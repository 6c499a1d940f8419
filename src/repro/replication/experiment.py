"""DES failover sweep: measure RPO/RTO and check the analytic lag model.

For each ``(mode, ship_interval)`` point the sweep runs a time-stepped
publish-only workload against a :class:`~repro.replication.pair
.ReplicatedPair`, crashes the primary at a seed-dependent instant, waits
for the standby to detect the lapsed lease and promote, and measures:

- ``rpo_measured`` — client-acked records the standby had not applied at
  the crash (always 0 in sync mode, the shipped-lag window in async);
- ``detection_measured`` — crash to promotion (lease expiry plus the
  standby's polling quantum);
- ``rto_measured`` — detection plus promotion replay.  Replay time is
  *virtualized* as ``records_replayed / replay_rate``, where
  ``records_replayed`` is what the promotion's recovery scan read (not
  the replica's lifetime count: a replica that compacted replays only
  its last checkpoint period).  The simulated clock cannot time real CPU
  work, so the bench recorder measures ``replay_rate`` from wall-clock
  timed recovery runs and feeds it in — the same convention either side
  of the comparison.

Each measurement is averaged over ``seeds`` independent runs (crash
phase varies by seed) and compared with
:class:`~repro.replication.model.ReplicationLagModel`; the relative
errors land in ``BENCH_replication.json`` via
``python -m repro bench replication``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..broker.message import Message
from ..core.moments import relative_error
from ..rng import RandomStreams
from .model import ReplicationLagModel
from .pair import ReplicatedPair, ReplicationConfig

__all__ = ["FailoverSweepPoint", "failover_sweep"]

_QUEUE = "orders"


@dataclass(frozen=True)
class FailoverSweepPoint:
    """Model-versus-DES comparison at one ``(mode, ship_interval)`` point."""

    mode: str
    ship_interval: float
    batch_size: int
    rate: float
    seeds: int
    rpo_model: float
    rpo_measured: float
    rpo_rel_err: float
    detection_model: float
    detection_measured: float
    rto_model: float
    rto_measured: float
    rto_rel_err: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "ship_interval": self.ship_interval,
            "batch_size": self.batch_size,
            "rate": self.rate,
            "seeds": self.seeds,
            "rpo_model": self.rpo_model,
            "rpo_measured": self.rpo_measured,
            "rpo_rel_err": self.rpo_rel_err,
            "detection_model": self.detection_model,
            "detection_measured": self.detection_measured,
            "rto_model": self.rto_model,
            "rto_measured": self.rto_measured,
            "rto_rel_err": self.rto_rel_err,
        }


def _run_once(
    mode: str,
    ship_interval: float,
    batch_size: int,
    rate: float,
    link_delay: float,
    lease_duration: float,
    renew_interval: float,
    horizon: float,
    seed: int,
) -> Dict[str, float]:
    config = ReplicationConfig(
        mode=mode,
        ship_interval=ship_interval,
        batch_size=batch_size,
        lease_duration=lease_duration,
        renew_interval=renew_interval,
        link_delay=link_delay,
        retransmit_timeout=max(4 * link_delay, ship_interval),
        segment_bytes=8 * 1024,
    )
    pair = ReplicatedPair(config, seed=seed)
    streams = RandomStreams(seed + 10)
    arrivals = streams.stream("replication-arrivals")
    phase = streams.stream("replication-crash-phase")
    crash_time = horizon * (0.5 + 0.4 * float(phase.random()))
    dt = min(ship_interval, renew_interval) / 4
    queue = pair.primary.queues.create(_QUEUE)
    next_arrival = float(arrivals.exponential(1.0 / rate))
    published = 0
    now = 0.0
    while now < crash_time:
        now = min(now + dt, crash_time)
        while next_arrival <= now:
            queue.send(
                Message(topic=_QUEUE, properties={"n": published}),
                now=next_arrival,
            )
            published += 1
            next_arrival += float(arrivals.exponential(1.0 / rate))
        pair.tick(now)
    acked = pair.client_acked_records
    applied = pair.standby.records_applied
    pair.crash_primary(now)
    deadline = now + 3 * lease_duration
    while not pair.promoted and now <= deadline:
        now += dt
        pair.tick(now)
        pair.maybe_promote(now)
    if not pair.promoted or pair.promotion is None:  # pragma: no cover
        raise AssertionError(f"standby failed to promote (mode={mode}, seed={seed})")
    return {
        "rpo": float(max(acked - applied, 0)),
        "detection": now - crash_time,
        "replayed": float(pair.promotion.records_replayed),
    }


def failover_sweep(
    ship_intervals: Sequence[float] = (0.01, 0.05, 0.2),
    modes: Sequence[str] = ("sync", "async"),
    batch_size: int = 16,
    rate: float = 200.0,
    link_delay: float = 0.002,
    lease_duration: float = 0.25,
    renew_interval: float = 0.05,
    replay_rate: float = 50_000.0,
    horizon: float = 1.0,
    seeds: int = 3,
) -> List[FailoverSweepPoint]:
    """RPO/RTO across ``ship_interval × mode``, model versus DES."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    points: List[FailoverSweepPoint] = []
    for mode in modes:
        for ship_interval in ship_intervals:
            runs = [
                _run_once(
                    mode,
                    ship_interval,
                    batch_size,
                    rate,
                    link_delay,
                    lease_duration,
                    renew_interval,
                    horizon,
                    seed,
                )
                for seed in range(seeds)
            ]
            rpo_measured = sum(r["rpo"] for r in runs) / seeds
            detection_measured = sum(r["detection"] for r in runs) / seeds
            replayed = sum(r["replayed"] for r in runs) / seeds
            model = ReplicationLagModel(
                mode=mode,
                ship_interval=ship_interval,
                batch_size=batch_size,
                rate=rate,
                link_delay=link_delay,
                lease_duration=lease_duration,
                renew_interval=renew_interval,
                replay_rate=replay_rate,
                standby_records=int(round(replayed)),
            )
            rto_measured = detection_measured + replayed / replay_rate
            points.append(
                FailoverSweepPoint(
                    mode=mode,
                    ship_interval=ship_interval,
                    batch_size=batch_size,
                    rate=rate,
                    seeds=seeds,
                    rpo_model=model.rpo_records,
                    rpo_measured=rpo_measured,
                    # One flush period of records is the natural RPO floor.
                    rpo_rel_err=relative_error(
                        rpo_measured, model.rpo_records, rate * model.flush_period
                    ),
                    detection_model=model.detection_seconds,
                    detection_measured=detection_measured,
                    rto_model=model.rto_seconds,
                    rto_measured=rto_measured,
                    rto_rel_err=relative_error(
                        rto_measured, model.rto_seconds, lease_duration / 10
                    ),
                )
            )
    return points
