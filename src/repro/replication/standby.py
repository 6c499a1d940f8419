"""The warm standby: applies shipped frames, promotes on failover.

A :class:`StandbyReplica` owns its **own** disk and journal replica.
A ship frame is its commit unit: every record of the frame is checked by
the one parser recovery uses, the accepted records are (a) appended
verbatim to the local journal as one run — one write and one fsync, the
standby's durability is independent of the primary's — and only then
(b) folded into a continuously maintained
:class:`~repro.durability.recovery.IncrementalFold` and acknowledged.
The replica is *warm*: its live state is known at every instant.
Promotion nevertheless runs the scan→fold→apply recovery path over the
local journal replica, exactly what a single-node restart runs, so what
it costs is what the replica holds — which is why the replica **compacts
at every shipped CHECKPOINT**, as the primary did: fresh segment, the
shipped bytes of the record, sync, then delete the older segments of
its own journal name.  Promotion replays one checkpoint period, not the
pair's lifetime.

A write fault on the replica's disk means the frame is *not* on the
replica: it is not folded, not counted and not acknowledged, and
go-back-N resends it.  A failed write keeps a prefix of the run, which
can hold whole records; the resend resumes after them
(:attr:`~repro.durability.journal.JournalWriteError.records_written`),
so no record is logged — and at promotion folded — twice.

Frame protocol (receiver side of go-back-N):

- frames apply strictly in sequence order; out-of-order arrivals are
  buffered until the gap fills (the shipper retransmits dropped frames);
- duplicates (retransmissions of already-applied frames) are counted and
  ignored;
- a frame whose epoch is below the **fencing floor** is a write from a
  fenced, stale primary and is rejected — the standby-side half of the
  split-brain defence.  The floor is only ever raised by
  :meth:`StandbyReplica.observe_epoch` — an *authenticated* event (a
  lease grant, this node's own promotion) — never by a received frame:
  frame contents are untrusted input, and trusting them would let a
  single bogus epoch stall replication forever;
- frames whose sequence is beyond the bounded reorder window are
  discarded (go-back-N retransmits them once the gap fills), so a
  garbage sequence cannot grow the reorder buffer without bound;
- corrupt frames (CRC mismatch anywhere in the frame, header included)
  decode to ``None`` upstream and never reach the replica.

Promotion (:meth:`StandbyReplica.promote`) follows the recovery no-raise
contract: any failure lands in :attr:`PromotionReport.errors`, never in
an exception — a standby that dies mid-promotion is strictly worse than
one that reports why it could not take over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..broker.server import Broker
from ..durability.disk import SimulatedDisk
from ..durability.journal import (
    Journal,
    JournalRecord,
    JournalWriteError,
    RecordKind,
    SyncPolicy,
)
from ..durability.recovery import IncrementalFold, RecoveryReport, _try_parse
from .link import ShipFrame, decode_frame

__all__ = ["PromotionReport", "StandbyReplica"]


@dataclass
class PromotionReport:
    """Structured account of one standby promotion attempt."""

    node_id: str
    started_at: float
    succeeded: bool = False
    #: Fencing epoch the promotion was authorized under.
    epoch: int = 0
    #: Records the replica had applied when promotion started — over its
    #: whole life, compacted history included.
    records_applied: int = 0
    #: Records the promotion's recovery scan actually read: what is on
    #: the replica since its last checkpoint, plus the snapshot record.
    records_replayed: int = 0
    recovery: Optional[RecoveryReport] = None
    broker: Optional[Broker] = None
    errors: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node_id": self.node_id,
            "started_at": self.started_at,
            "succeeded": self.succeeded,
            "epoch": self.epoch,
            "records_applied": self.records_applied,
            "records_replayed": self.records_replayed,
            "recovery": self.recovery.to_dict() if self.recovery else None,
            "errors": list(self.errors),
        }


class StandbyReplica:
    """Continuously folds shipped journal records into recovery state."""

    def __init__(
        self,
        disk: Optional[SimulatedDisk] = None,
        name: str = "journal",
        node_id: str = "standby",
        sync: SyncPolicy = SyncPolicy.always(),
        segment_bytes: int = 64 * 1024,
        reorder_window: int = 1024,
    ):
        if reorder_window < 1:
            raise ValueError(
                f"reorder window must be >= 1, got {reorder_window}"
            )
        self.disk = disk if disk is not None else SimulatedDisk()
        self.name = name
        self.node_id = node_id
        self.journal = Journal(
            self.disk, name=name, sync=sync, segment_bytes=segment_bytes
        )
        self.fold = IncrementalFold()
        self._next_sequence = 0
        #: Leading records of frame ``_next_sequence`` that a failed write
        #: left on the replica whole (already folded and counted): the
        #: resend of that frame resumes after them.
        self._resume = 0
        self._buffered: Dict[int, ShipFrame] = {}
        self._reorder_window = reorder_window
        self._max_epoch_seen = 0
        # -- counters ----------------------------------------------------
        self.frames_applied = 0
        self.records_applied = 0
        self.duplicates = 0
        self.frames_buffered = 0
        #: Frames rejected because their epoch predates the fencing floor —
        #: writes from a fenced, stale primary.
        self.frames_fenced = 0
        #: Frames rejected because their sequence is beyond the reorder
        #: window; go-back-N retransmission resends them later.
        self.frames_out_of_window = 0
        self.corrupt_frames = 0
        self.malformed_records = 0
        self.journal_write_failures = 0

    # ------------------------------------------------------------------
    @property
    def applied_sequence(self) -> int:
        """Cumulative ack: every frame with ``sequence < this`` is applied."""
        return self._next_sequence

    @property
    def max_epoch_seen(self) -> int:
        return self._max_epoch_seen

    @property
    def live_messages(self) -> int:
        """Messages live in the warm fold right now."""
        return len(self.fold.result.live)

    def observe_epoch(self, epoch: int) -> None:
        """Raise the fencing floor from an *authenticated* epoch.

        Only lease-coordinator events call this (a grant this node
        witnessed, its own promotion).  Epochs carried by received
        frames never raise the floor — see :meth:`receive`.
        """
        self._max_epoch_seen = max(self._max_epoch_seen, epoch)

    # ------------------------------------------------------------------
    def receive(self, payload: bytes, now: float = 0.0) -> int:
        """Take one wire frame off the link; returns the cumulative ack."""
        frame = decode_frame(payload)
        if frame is None:
            self.corrupt_frames += 1
            return self._next_sequence
        if frame.epoch < self._max_epoch_seen:
            self.frames_fenced += 1
            return self._next_sequence
        # Deliberately NOT raising _max_epoch_seen here: a frame's epoch
        # is untrusted input, and the floor must only move on events the
        # coordinator authenticated (observe_epoch).
        if frame.sequence < self._next_sequence:
            self.duplicates += 1
            return self._next_sequence
        if frame.sequence >= self._next_sequence + self._reorder_window:
            self.frames_out_of_window += 1
            return self._next_sequence
        if frame.sequence != self._next_sequence:
            self.frames_buffered += 1
        self._buffered[frame.sequence] = frame
        while self._next_sequence in self._buffered:
            try:
                self._apply(self._buffered.pop(self._next_sequence), now)
            except JournalWriteError:
                # Not on the replica, so not acknowledged: go-back-N
                # resends the frame after ``retransmit_timeout``.
                self.journal_write_failures += 1
                break
            self._next_sequence += 1
        return self._next_sequence

    def _apply(self, frame: ShipFrame, now: float) -> None:
        """Commit one frame: validate, write, and only then fold.

        Every record is checked by the one parser; the accepted ones are
        appended verbatim as one run (one write, one fsync per stretch
        that shares a segment), so the replica is byte-identical to what
        shipped — except at a CHECKPOINT, where the replica compacts as
        the primary did.  A write fault raises with nothing beyond what
        reached the disk folded or counted; ``_resume`` remembers how far
        that was.
        """
        accepted: List[JournalRecord] = []
        encoded: List[bytes] = []
        for raw in frame.records:
            parsed = _try_parse(raw, 0)
            if parsed is not None and parsed[1] == len(raw):
                accepted.append(parsed[0])
                encoded.append(raw)
        journal = self.journal
        done, count = self._resume, len(accepted)
        if done and done == count:
            journal.sync()  # the failed attempt left all of it there, unflushed
        while done < count:
            # One commit: a CHECKPOINT alone, or the run up to the next one.
            stop = done + 1
            compact = accepted[done].kind is RecordKind.CHECKPOINT
            while not compact and stop < count and (
                accepted[stop].kind is not RecordKind.CHECKPOINT
            ):
                stop += 1
            try:
                if compact:
                    journal.checkpoint_encoded(encoded[done], now=now)
                else:
                    journal.append_run(encoded[done:stop], now=now)
            except JournalWriteError as exc:
                self._landed(accepted[done : done + exc.records_written])
                raise
            self._landed(accepted[done:stop])
            done = stop
        self._resume = 0
        self.malformed_records += len(frame.records) - count
        self.frames_applied += 1

    def _landed(self, records: List[JournalRecord]) -> None:
        """These records of the frame being applied are on the replica."""
        for record in records:
            self.fold.push(record)
        self.records_applied += len(records)
        self._resume += len(records)

    # ------------------------------------------------------------------
    def promote(
        self,
        now: float,
        epoch: int,
        topics: Sequence[str] = (),
    ) -> PromotionReport:
        """Take over as leader: recover a broker from the local replica.

        Runs the existing scan→fold→apply recovery path over the
        standby's own journal — promotion exercises exactly the code a
        single-node restart does.  ``epoch`` is the fencing token the
        lease coordinator granted this node; it becomes the floor below
        which late frames from the old primary are rejected.  Never
        raises: failures are reported in :attr:`PromotionReport.errors`.
        """
        report = PromotionReport(
            node_id=self.node_id,
            started_at=now,
            epoch=epoch,
            records_applied=self.records_applied,
        )
        self.observe_epoch(epoch)
        try:
            self.journal.close()
            journal = Journal(
                self.disk,
                name=self.name,
                sync=self.journal.sync_policy,
                segment_bytes=self.journal.segment_bytes,
            )
            broker = Broker(topics=list(topics), journal=journal)
            broker.recover(reconnect_subscribers=False, now=now)
        except Exception as exc:  # the no-raise promotion contract
            report.errors.append(f"promotion failed: {exc!r}")
            return report
        report.recovery = broker.last_recovery
        if report.recovery is not None:
            report.records_replayed = report.recovery.records_replayed
        report.broker = broker
        report.succeeded = True
        self.journal = journal
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StandbyReplica({self.node_id!r}, applied={self.records_applied}, "
            f"ack={self._next_sequence})"
        )
