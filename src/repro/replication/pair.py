"""A replicated primary/standby broker pair with journal shipping.

:class:`ReplicatedPair` wires the whole high-availability stack together:

- the **primary** is an ordinary journalled
  :class:`~repro.broker.server.Broker` on its own simulated disk;
- a :class:`~repro.durability.tail.JournalTailer` follows the primary's
  journal — as its follower, handed the bytes each commit wrote, so
  the shipper reads back from the disk only what the hand cannot vouch
  for — and the **shipper** batches new records into
  :class:`~repro.replication.link.ShipFrame` frames — a frame goes out
  when ``batch_size`` records accumulate or ``ship_interval`` elapses
  since the last send, whichever comes first (the group-commit shape,
  M^X batch arrivals on the wire).  The cost follows the commits, not
  the clock: a tick with nothing new on the primary's disk, nothing
  pending and nothing unacked polls, frames and resends nothing and
  touches neither disk;
- frames cross a fault-injectable
  :class:`~repro.replication.link.SimulatedLink` to the
  :class:`~repro.replication.standby.StandbyReplica`, which applies each
  as one commit (one write, one fsync, then the ack), in sequence, and
  acks cumulatively; dropped/corrupt frames — and frames the standby
  could not write — are retransmitted after ``retransmit_timeout``
  (go-back-N);
- a :class:`~repro.replication.lease.LeaseCoordinator` arbitrates
  leadership: the primary renews every tick, a crash or pause lets the
  lease lapse, and :meth:`maybe_promote` has the standby take over via
  the existing scan→fold→apply recovery path with a **new fencing
  epoch** — after which the revived primary's acks raise
  :class:`~repro.replication.lease.FencingError` and its late frames are
  rejected by the standby.

Acknowledgement modes:

- ``sync`` — a record is client-acked only once the standby has applied
  it (:attr:`client_acked_records` trails the cumulative frame ack).
  RPO is zero by construction; the ack latency is the shipping latency,
  amortized per record as ``t_ship/b`` (see
  :mod:`repro.replication.model`);
- ``async`` — a record is client-acked as soon as the local fsync
  returns.  Acks are fast; the crash-loss window is exactly the
  shipped-lag window (acked records the standby has not applied yet).

The pair is a time-stepped model like the link: the driver calls
:meth:`tick` at its clock resolution.  Return-path latency of the
cumulative ack is folded into the one-way ``link_delay``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..broker.server import Broker
from ..durability.disk import SimulatedDisk
from ..durability.journal import RECORD_HEADER_SIZE, Journal, RecordKind, SyncPolicy
from ..durability.recovery import collect_live_entries
from ..durability.tail import JournalTailer
from ..rng import RandomStreams
from .lease import FencingError, LeaseCoordinator
from .link import ShipFrame, SimulatedLink, encode_frame
from .standby import PromotionReport, StandbyReplica

__all__ = ["ReplicationConfig", "ReplicatedPair"]

_MODES = ("sync", "async")
#: The kind byte of a CHECKPOINT record.
_CHECKPOINT = RecordKind.CHECKPOINT.value


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of one replicated pair."""

    mode: str = "sync"
    #: Maximum time a pending record waits before its frame ships.
    ship_interval: float = 0.05
    #: Records per frame; a full batch ships immediately.
    batch_size: int = 16
    lease_duration: float = 1.0
    #: How often the driver is expected to tick (lease renewal cadence).
    renew_interval: float = 0.25
    #: One-way link latency (ack return latency is folded in).
    link_delay: float = 0.005
    #: Unacked frames are resent after this long (go-back-N).
    retransmit_timeout: float = 0.1
    segment_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("ship_interval", "lease_duration", "renew_interval",
                     "retransmit_timeout"):
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
        if self.renew_interval >= self.lease_duration:
            raise ValueError(
                f"renew_interval {self.renew_interval} must be below the lease "
                f"duration {self.lease_duration} or the lease flaps"
            )


class ReplicatedPair:
    """Primary/standby pair: shipping, leases, fencing, promotion."""

    def __init__(
        self,
        config: Optional[ReplicationConfig] = None,
        seed: int = 0,
        topics: Sequence[str] = (),
    ):
        self.config = config if config is not None else ReplicationConfig()
        self.seed = seed
        self._topics = tuple(topics)
        self.primary_id = "primary"
        self.standby_id = "standby"
        self.primary_disk = SimulatedDisk(RandomStreams(seed))
        self.journal = Journal(
            self.primary_disk,
            sync=SyncPolicy.always(),
            segment_bytes=self.config.segment_bytes,
        )
        self.primary = Broker(topics=list(topics), journal=self.journal)
        self.tailer = JournalTailer(self.primary_disk)
        self.journal.follow(self.tailer.feed)
        self.link = SimulatedLink(RandomStreams(seed + 1), delay=self.config.link_delay)
        self.standby = StandbyReplica(
            disk=SimulatedDisk(RandomStreams(seed + 2)),
            node_id=self.standby_id,
            segment_bytes=self.config.segment_bytes,
        )
        self.lease = LeaseCoordinator(self.config.lease_duration)
        initial = self.lease.acquire(self.primary_id, 0.0)
        assert initial is not None  # a fresh coordinator always grants
        self._primary_epoch = initial.epoch
        self._last_renew = 0.0
        # -- shipper state ------------------------------------------------
        self._pending: List[bytes] = []
        #: ``sequence -> (records, last_sent)``.  Records, not wire bytes:
        #: retransmissions re-encode under the *current* epoch, so a frame
        #: built before a lease re-acquisition is never replayed with a
        #: stale fencing token.
        self._unacked: Dict[int, Tuple[Tuple[bytes, ...], float]] = {}
        #: ``sequence -> LSNs the frame covers``: its records, plus those
        #: a CHECKPOINT in it subsumed without the shipper taking them.
        self._frame_lsns: Dict[int, int] = {}
        #: The LSN after the last record taken from the tailer; the LSN of
        #: the last :meth:`checkpoint_primary` until the tailer hands over
        #: its CHECKPOINT; ``(position in _pending, LSNs skipped)`` for each
        #: CHECKPOINT pending whose predecessors were not all taken.
        self._lsn_taken = 0
        self._checkpoint_lsn: Optional[int] = None
        self._pending_gaps: List[Tuple[int, int]] = []
        self._next_sequence = 0
        self._acked_sequence = 0
        self._records_shipped = 0
        #: The LSN watermark the standby's acks cover (see
        #: :attr:`records_acked_by_standby`).
        self._records_acked = 0
        self._last_ship = 0.0
        # -- leadership state ---------------------------------------------
        self.primary_up = True
        self.primary_paused = False
        #: True once the primary has observed itself superseded (a newer
        #: epoch exists); it stops renewing and shipping.
        self.primary_fenced = False
        self.promoted = False
        self.promotion: Optional[PromotionReport] = None
        self.crashed_at: Optional[float] = None
        self.promoted_at: Optional[float] = None
        #: Records the leader has durably acknowledged to clients, as an
        #: LSN watermark (every record below it) — the no-lost-ack
        #: invariant is stated over exactly this watermark.
        self.client_acked_records = 0
        # -- counters -----------------------------------------------------
        self.frames_shipped = 0
        self.retransmits = 0
        self.fencing_errors = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def primary_epoch(self) -> int:
        return self._primary_epoch

    @property
    def records_acked_by_standby(self) -> int:
        """The LSN below which the standby has acknowledged every record:
        applied, or subsumed by a CHECKPOINT it applied.  It counts
        records, as :attr:`Journal.records_appended` does, until a
        checkpoint compacts records the shipper never took."""
        return self._records_acked

    @property
    def shipped_lag_records(self) -> int:
        """Primary-journalled records the standby has not acknowledged yet."""
        return max(self.journal.records_appended - self._records_acked, 0)

    @property
    def unshipped_acked_records(self) -> int:
        """Client-acked records not yet on the standby — the RPO exposure."""
        return max(self.client_acked_records - self._records_acked, 0)

    @property
    def leader_broker(self) -> Broker:
        """The broker clients should currently talk to."""
        if self.promoted and self.promotion is not None and self.promotion.broker:
            return self.promotion.broker
        return self.primary

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance the pair: renew, ship, deliver, update ack watermark."""
        self._renew_lease(now)
        self._ship(now)
        self._deliver(now)
        self._update_client_acks(now)

    def _renew_lease(self, now: float) -> None:
        if not self.primary_up or self.primary_paused or self.primary_fenced:
            return
        if (
            now - self._last_renew < self.config.renew_interval
            and self.lease.holder_at(now) == self.primary_id
        ):
            return
        lease = self.lease.acquire(self.primary_id, now)
        if lease is None:
            # Another node holds a live lease: this primary is superseded.
            self.primary_fenced = True
            return
        self._primary_epoch = lease.epoch
        self._last_renew = now

    def _ship(self, now: float) -> None:
        if not self.primary_up or self.primary_paused or self.primary_fenced:
            return
        # Forward the bytes the journal wrote; nothing re-encodes them.
        pending = self._pending
        polled = self.tailer.poll_encoded()
        if polled:
            if self._checkpoint_lsn is not None:
                self._skip_to_checkpoint(polled[0])
            self._lsn_taken += len(polled)
            pending.extend(polled)
        if pending:
            batch = self.config.batch_size
            while len(pending) >= batch:
                self._send_frame(pending[:batch], now)
                del pending[:batch]
            if pending and now - self._last_ship >= self.config.ship_interval:
                self._send_frame(pending, now)
                pending.clear()
        if not self._unacked:
            return
        # Go-back-N: resend what has waited too long.  Frames enter
        # ``_unacked`` in increasing sequence and a resend keeps its key,
        # so insertion order is sequence order.
        timeout = self.config.retransmit_timeout
        for sequence, (records, last_sent) in self._unacked.items():
            if now - last_sent >= timeout:
                wire = encode_frame(
                    ShipFrame(
                        sequence=sequence,
                        epoch=self._primary_epoch,
                        records=records,
                    )
                )
                self.link.send(wire, now)
                self._unacked[sequence] = (records, now)
                self.retransmits += 1

    def _skip_to_checkpoint(self, first: bytes) -> None:
        """The first take after :meth:`checkpoint_primary`: ``first`` is
        the CHECKPOINT the tailer repositioned onto, whose snapshot
        subsumes the records it skipped, so the frame that carries it acks
        their LSNs too."""
        lsn, self._checkpoint_lsn = self._checkpoint_lsn, None
        assert lsn is not None
        if first[RECORD_HEADER_SIZE] == _CHECKPOINT and lsn > self._lsn_taken:
            self._pending_gaps.append((len(self._pending), lsn - self._lsn_taken))
            self._lsn_taken = lsn

    def _send_frame(self, records: List[bytes], now: float) -> None:
        """Ship ``records``, the head of ``_pending``, as one frame."""
        frame = ShipFrame(
            sequence=self._next_sequence,
            epoch=self._primary_epoch,
            records=tuple(records),
        )
        wire = encode_frame(frame)
        count = covered = len(records)
        if self._pending_gaps:
            kept = []
            for position, skipped in self._pending_gaps:
                if position < count:
                    covered += skipped
                else:
                    kept.append((position - count, skipped))
            self._pending_gaps = kept
        self._frame_lsns[frame.sequence] = covered
        self._unacked[frame.sequence] = (frame.records, now)
        self._next_sequence += 1
        self._records_shipped += len(records)
        self.frames_shipped += 1
        self._last_ship = now
        self.link.send(wire, now)

    def _deliver(self, now: float) -> None:
        for payload in self.link.deliver_due(now):
            ack = self.standby.receive(payload, now)
            while self._acked_sequence < ack:
                sequence = self._acked_sequence
                self._records_acked += self._frame_lsns.pop(sequence, 0)
                self._unacked.pop(sequence, None)
                self._acked_sequence += 1

    def _update_client_acks(self, now: float) -> None:
        if not self.primary_up or self.primary_paused or self.primary_fenced:
            return
        if not self.lease.validate(self.primary_id, self._primary_epoch, now):
            # Expired-but-untaken leases re-acquire on the next renew; a
            # superseding epoch means this primary must stop acking.
            if self.lease.epoch > self._primary_epoch:
                self.primary_fenced = True
            return
        if self.config.mode == "sync":
            self.client_acked_records = self._records_acked
        else:
            self.client_acked_records = self.journal.records_appended

    # ------------------------------------------------------------------
    # Client-facing ack path (the fenced write)
    # ------------------------------------------------------------------
    def acked_records(self, now: float) -> int:
        """The ack watermark, gated by the fencing check.

        Raises :class:`FencingError` when this node no longer holds the
        lease under the epoch its state was stamped with — the revived,
        superseded primary lands here instead of double-acking.
        """
        if not self.primary_up:
            raise FencingError("primary is down")
        if not self.lease.validate(self.primary_id, self._primary_epoch, now):
            self.fencing_errors += 1
            raise FencingError(
                f"primary epoch {self._primary_epoch} superseded "
                f"(coordinator epoch {self.lease.epoch})"
            )
        return self.client_acked_records

    # ------------------------------------------------------------------
    # Failure operations
    # ------------------------------------------------------------------
    def crash_primary(self, now: float) -> None:
        """Hard-stop the primary; its lease lapses and shipping halts."""
        if not self.primary_up:
            return
        self.primary_up = False
        self.crashed_at = now
        self.primary.crash(now=now)

    def pause_primary(self, now: float) -> None:
        """GC-pause/partition: the primary stops renewing but stays up."""
        self.primary_paused = True

    def revive_primary(self, now: float) -> None:
        """End the pause; the next tick tries to renew (and may be fenced)."""
        self.primary_paused = False

    def maybe_promote(self, now: float) -> Optional[PromotionReport]:
        """Standby-side failover detection: take an expired lease and promote."""
        if self.promoted:
            return None
        if self.lease.holder_at(now) is not None:
            return None
        lease = self.lease.acquire(self.standby_id, now)
        if lease is None:  # pragma: no cover - the expiry check above gates this
            return None
        report = self.standby.promote(now, epoch=lease.epoch, topics=self._topics)
        self.promotion = report
        if report.succeeded:
            self.promoted = True
            self.promoted_at = now
        return report

    # ------------------------------------------------------------------
    def checkpoint_primary(self, now: float) -> Tuple[int, int]:
        """Checkpoint-compact the primary journal under the tail reader.

        The tailer's next take starts at the CHECKPOINT, at the LSN
        returned here: the shipper remembers it, so the ack watermark
        counts the records the snapshot subsumed (see
        :meth:`_skip_to_checkpoint`)."""
        lsn, deleted = self.journal.checkpoint(collect_live_entries(self.primary), now=now)
        self._checkpoint_lsn = lsn
        return lsn, deleted

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.config.mode,
            "records_appended": self.journal.records_appended,
            "records_shipped": self._records_shipped,
            "records_acked_by_standby": self._records_acked,
            "client_acked_records": self.client_acked_records,
            "shipped_lag_records": self.shipped_lag_records,
            "frames_shipped": self.frames_shipped,
            "retransmits": self.retransmits,
            "standby_applied": self.standby.records_applied,
            "promoted": self.promoted,
            "primary_fenced": self.primary_fenced,
            "epoch": self.lease.epoch,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedPair(mode={self.config.mode!r}, "
            f"acked={self.client_acked_records}, promoted={self.promoted})"
        )
