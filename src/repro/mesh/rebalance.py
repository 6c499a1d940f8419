"""Fault-tolerant partition handoff: journal-backed transfer batches.

A membership change (`MeshMembership.join/leave/crash`) emits the set of
:class:`~repro.mesh.membership.PartitionMove` handoffs; the
:class:`RebalanceEngine` runs one :class:`HandoffSession` per
``(source, dest)`` pair.  A session reuses the whole PR 7 replication
stack rather than inventing a second transfer path:

- the source side is a :class:`~repro.durability.tail.JournalTailer`
  over the source shard's *disk* — which survives the source process, so
  a source crash mid-handoff does not stall the transfer: the session
  keeps rolling forward from the shipped journal prefix;
- records travel as CRC-framed :class:`~repro.replication.link.ShipFrame`
  batches over a fault-injectable
  :class:`~repro.replication.link.SimulatedLink`, go-back-N with the
  receiver's cumulative ack and step-counted retransmission;
- the destination side is a :class:`~repro.replication.standby.StandbyReplica`
  staging replica journalled on the *destination's* disk, folding the
  shipped prefix incrementally; frames are stamped with a **fencing
  epoch** from the mesh's shared
  :class:`~repro.replication.lease.LeaseCoordinator`, so a stale session
  resuming after its lease lapsed is rejected by the receiver's floor;
- **apply** walks the staged fold's live entries for the moved keys and
  hands each message to the destination queue's ``transfer_in`` —
  idempotent via the control plane's
  :class:`~repro.mesh.membership.TransferLog` keyed ``(durable_key-shaped
  placement key, message id)`` plus the queue's own liveness check, so a
  retried transfer is never double-applied;
- **flip** commits ownership in the partition table (the single
  linearization point — crash before it and the source still owns the
  key; crash after it and a recovering source rolls its copies forward);
- **retire** drains the moved partitions off a live source
  (``transferred_out``); a crashed source skips retire and
  :meth:`~repro.mesh.sharded.ShardedBroker.recover` rolls forward later.

The engine owns the virtual clock, advances it ``dt`` per step, retries
a session whose destination crashed (after recovering it and waiting out
the fencing lease), and exposes a per-step hook the chaos harness uses
to crash shards and break the link at *every* step of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..durability.recovery import decode_message
from ..durability.tail import JournalTailer
from ..replication.link import ShipFrame, SimulatedLink, encode_frame
from ..replication.standby import StandbyReplica
from .membership import MembershipEvent
from .ring import placement_key
from .sharded import Shard, ShardedBroker

__all__ = ["HandoffReport", "HandoffSession", "RebalanceEngine", "RebalanceReport"]


@dataclass
class HandoffReport:
    """Outcome of one handoff session attempt."""

    source: str
    dest: str
    keys: Tuple[str, ...]
    attempt: int
    epoch: int = 0
    steps: List[str] = field(default_factory=list)
    records_shipped: int = 0
    frames_sent: int = 0
    retransmissions: int = 0
    messages_applied: int = 0
    duplicates_suppressed: int = 0
    dropped_on_handoff: int = 0
    rejected: int = 0
    malformed: int = 0
    committed: bool = False
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "dest": self.dest,
            "keys": list(self.keys),
            "attempt": self.attempt,
            "epoch": self.epoch,
            "steps": len(self.steps),
            "records_shipped": self.records_shipped,
            "frames_sent": self.frames_sent,
            "retransmissions": self.retransmissions,
            "messages_applied": self.messages_applied,
            "duplicates_suppressed": self.duplicates_suppressed,
            "dropped_on_handoff": self.dropped_on_handoff,
            "rejected": self.rejected,
            "malformed": self.malformed,
            "committed": self.committed,
            "error": self.error,
        }


class HandoffSession:
    """One attempt to move a key set from ``source`` to ``dest``."""

    def __init__(
        self,
        mesh: ShardedBroker,
        source: str,
        dest: str,
        keys: Sequence[str],
        attempt: int = 1,
        batch_records: int = 4,
        stall_limit: int = 3,
        link: Optional[SimulatedLink] = None,
    ):
        if batch_records < 1:
            raise ValueError(f"batch_records must be >= 1, got {batch_records}")
        if stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1, got {stall_limit}")
        self.mesh = mesh
        self.source = source
        self.dest = dest
        self.keys: Tuple[str, ...] = tuple(sorted(set(keys)))
        self._key_set: Set[str] = set(self.keys)
        self.attempt = attempt
        self.batch_records = batch_records
        self.stall_limit = stall_limit
        self.link = link if link is not None else SimulatedLink(delay=0.002)
        self.holder = f"handoff:{source}->{dest}#a{attempt}"
        self.report = HandoffReport(
            source=source, dest=dest, keys=self.keys, attempt=attempt
        )
        self.epoch = 0
        self.tailer: Optional[JournalTailer] = None
        self.receiver: Optional[StandbyReplica] = None
        self._state = "fence"
        self._next_sequence = 0
        #: Raw record bytes of every sent frame, kept for go-back-N
        #: retransmission (frames are re-encoded under the current epoch).
        self._sent: Dict[int, Tuple[bytes, ...]] = {}
        self._stall = 0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._state == "done"

    @property
    def state(self) -> str:
        return self._state

    def _source_shard(self) -> Shard:
        return self.mesh.shard(self.source)

    def _dest_shard(self) -> Shard:
        return self.mesh.shard(self.dest)

    # ------------------------------------------------------------------
    def step(self, now: float) -> Optional[str]:
        """Advance the protocol by one step; returns the step label."""
        if self._state == "done":
            return None
        label = getattr(self, f"_step_{self._state}")(now)
        self.report.steps.append(label)
        return label

    # -- fence ---------------------------------------------------------
    def _step_fence(self, now: float) -> str:
        lease = self.mesh.membership.lease.acquire(self.holder, now)
        if lease is None:
            return "fence-wait"
        self.epoch = lease.epoch
        self.report.epoch = lease.epoch
        self.tailer = JournalTailer(self._source_shard().disk, name="journal")
        self.receiver = StandbyReplica(
            disk=self._dest_shard().disk,
            name=f"transfer-{self.source}-a{self.attempt}",
            node_id=self.dest,
        )
        # Authenticated epoch observation: this node witnessed the grant.
        self.receiver.observe_epoch(self.epoch)
        self._state = "ship"
        return "fence"

    # -- ship / deliver / retransmit ------------------------------------
    def _renew(self, now: float) -> None:
        lease = self.mesh.membership.lease.acquire(self.holder, now)
        if lease is not None and lease.epoch != self.epoch:
            # Our own lease lapsed and was re-granted: adopt the new
            # epoch (in-flight frames under the old one will be fenced
            # by the receiver and retransmitted under this one).
            self.epoch = lease.epoch
            self.report.epoch = lease.epoch
            if self.receiver is not None:
                self.receiver.observe_epoch(lease.epoch)

    def _send_frame(self, sequence: int, records: Tuple[bytes, ...], now: float) -> None:
        frame = ShipFrame(sequence=sequence, epoch=self.epoch, records=records)
        self.link.send(encode_frame(frame), now)
        # session-local report counter, not SimulatedLink.frames_sent
        self.report.frames_sent += 1  # repro: ignore[RACE001]

    def _step_ship(self, now: float) -> str:
        assert self.tailer is not None and self.receiver is not None
        self._renew(now)
        batch = self.tailer.poll(self.batch_records)
        label = "deliver"
        if batch:
            records = tuple(record.encoded for record in batch)
            sequence = self._next_sequence
            self._next_sequence += 1
            self._sent[sequence] = records
            self._send_frame(sequence, records, now)
            self.report.records_shipped += len(records)
            self._stall = 0
            label = f"ship:{sequence}"
        for payload in self.link.deliver_due(now):
            self.receiver.receive(payload, now)
        acked = self.receiver.applied_sequence
        if (
            not batch
            and acked >= self._next_sequence
            and self.tailer.lag_bytes == 0
        ):
            self._state = "apply"
            return "drain"
        if not batch:
            self._stall += 1
            if self._stall >= self.stall_limit and acked < self._next_sequence:
                # Go-back-N: re-ship everything past the cumulative ack.
                for sequence in range(acked, self._next_sequence):
                    self._send_frame(sequence, self._sent[sequence], now)
                    self.report.retransmissions += 1
                self._stall = 0
                return "retransmit"
        return label

    # -- apply -----------------------------------------------------------
    def _step_apply(self, now: float) -> str:
        assert self.receiver is not None
        transfers = self.mesh.membership.transfers
        dest_broker = self._dest_shard().broker
        for entry in self.receiver.fold.result.ordered_live():
            if entry.domain != "queue":
                continue
            key = placement_key("queue", entry.destination)
            if key not in self._key_set:
                continue
            try:
                message_id = int(entry.message_fields["mid"])
            except (KeyError, TypeError, ValueError):
                self.report.malformed += 1
                continue
            if transfers.seen(key, message_id):
                transfers.suppress()
                self.report.duplicates_suppressed += 1
                continue
            try:
                message = decode_message(entry.message_fields)
            except (KeyError, TypeError, ValueError):
                self.report.malformed += 1
                continue
            queue = dest_broker.queues.create(entry.destination)
            fate = queue.transfer_in(message, delivers=entry.delivers, now=now)
            if fate == "rejected":
                self.report.rejected += 1
                continue
            if fate == "duplicate":
                self.report.duplicates_suppressed += 1
            elif fate == "dropped":
                self.report.dropped_on_handoff += 1
            else:
                self.report.messages_applied += 1
            transfers.record(key, message_id)
        self._state = "flip"
        return "apply"

    # -- flip ------------------------------------------------------------
    def _step_flip(self, now: float) -> str:
        table = self.mesh.membership.table
        for key in self.keys:
            table.flip(key, self.dest)
        self._state = "retire"
        return "flip"

    # -- retire ----------------------------------------------------------
    def _step_retire(self, now: float) -> str:
        source = self._source_shard()
        if not source.crashed:
            for key in self.keys:
                domain, _, name = key.partition("|")
                if domain != "queue" or name not in source.broker.queues:
                    continue
                queue = source.broker.queues.get(name)
                for consumer in list(queue.consumers):
                    queue.detach(consumer, now=now)
                for message, _redelivered in list(queue._backlog):
                    queue.transfer_out(message.message_id, now=now)
        self.report.committed = True
        self._state = "done"
        return "retire"


@dataclass
class RebalanceReport:
    """Outcome of rebalancing one membership event."""

    event: MembershipEvent
    handoffs: List[HandoffReport] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    completed: bool = False
    errors: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def attempts(self) -> int:
        return len(self.handoffs)

    @property
    def steps(self) -> int:
        return sum(len(h.steps) for h in self.handoffs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": {
                "kind": self.event.kind,
                "shard_id": self.event.shard_id,
                "moves": len(self.event.moves),
            },
            "completed": self.completed,
            "duration": self.duration,
            "attempts": self.attempts,
            "steps": self.steps,
            "errors": list(self.errors),
            "handoffs": [h.to_dict() for h in self.handoffs],
        }


#: Per-step hook: ``hook(engine, session, global_step_index)`` runs
#: *before* the step executes — the chaos harness's injection point.
FaultHook = Callable[["RebalanceEngine", HandoffSession, int], None]


class RebalanceEngine:
    """Drive every handoff of a membership event to completion."""

    def __init__(
        self,
        mesh: ShardedBroker,
        batch_records: int = 4,
        link_delay: float = 0.002,
        dt: float = 0.005,
        stall_limit: int = 3,
        max_attempts: int = 6,
        max_steps: int = 20000,
    ):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.mesh = mesh
        self.batch_records = batch_records
        self.link_delay = link_delay
        self.dt = dt
        self.stall_limit = stall_limit
        self.max_attempts = max_attempts
        self.max_steps = max_steps
        self.now = 0.0
        self.step_index = 0

    # ------------------------------------------------------------------
    def _wait_out_lease(self) -> None:
        lease = self.mesh.membership.lease.lease
        if lease is not None and lease.expires_at > self.now:
            self.now = lease.expires_at + self.dt

    def _run_session(
        self,
        session: HandoffSession,
        hook: Optional[FaultHook],
        budget: List[int],
    ) -> bool:
        """Run one attempt; False when the destination died mid-way."""
        while not session.done:
            if budget[0] <= 0:
                session.report.error = "step budget exhausted"
                return False
            budget[0] -= 1
            if hook is not None:
                hook(self, session, self.step_index)
            self.step_index += 1
            # A dead destination cannot receive, apply or commit — bail
            # *before* the step so no protocol action runs against a
            # crashed process (applying to one would leave an in-memory
            # copy its own journal replay then duplicates).
            if self.mesh.shard(session.dest).crashed:
                session.report.error = "destination crashed mid-handoff"
                return False
            label = session.step(self.now)
            self.now += self.dt
            if label == "fence-wait":
                self._wait_out_lease()
        return True

    def rebalance(
        self,
        event: MembershipEvent,
        hook: Optional[FaultHook] = None,
    ) -> RebalanceReport:
        """Run every handoff the event mandates, retrying crashed ones.

        A destination crash aborts the attempt; the engine waits out the
        fencing lease (so the dead session's epoch is superseded),
        recovers the destination, and retries with a fresh session whose
        apply path is idempotent against whatever the dead attempt
        already committed.  A *source* crash does not abort anything —
        the tailer ships from the source's surviving disk.
        """
        report = RebalanceReport(event=event, started_at=self.now)
        moves_by_pair: Dict[Tuple[str, str], List[str]] = {}
        for move in event.moves:
            moves_by_pair.setdefault((move.source, move.dest), []).append(move.key)
        budget = [self.max_steps]
        for source, dest in sorted(moves_by_pair):
            keys = moves_by_pair[(source, dest)]
            self.mesh.membership.table.begin_migration(keys)
            try:
                committed = self._run_pair(
                    source, dest, keys, hook, budget, report
                )
            finally:
                self.mesh.membership.table.end_migration(keys)
            if not committed:
                report.finished_at = self.now
                return report
        self._finish_event(event, report)
        report.completed = not report.errors
        report.finished_at = self.now
        return report

    def _run_pair(
        self,
        source: str,
        dest: str,
        keys: List[str],
        hook: Optional[FaultHook],
        budget: List[int],
        report: RebalanceReport,
    ) -> bool:
        for attempt in range(1, self.max_attempts + 1):
            session = HandoffSession(
                self.mesh,
                source,
                dest,
                keys,
                attempt=attempt,
                batch_records=self.batch_records,
                stall_limit=self.stall_limit,
                link=SimulatedLink(delay=self.link_delay),
            )
            report.handoffs.append(session.report)
            if self._run_session(session, hook, budget):
                return True
            if budget[0] <= 0:
                report.errors.append(
                    f"{source}->{dest}: step budget exhausted at attempt {attempt}"
                )
                return False
            # The destination died mid-attempt: fence off the dead
            # session, bring the destination back, and retry.
            self._wait_out_lease()
            recovery = self.mesh.recover(
                self.now, shard_ids=self._recoverable_shards()
            )
            if not recovery.ok:
                report.errors.append(
                    f"{source}->{dest}: recovery failed after attempt {attempt}"
                )
                return False
        report.errors.append(f"{source}->{dest}: exhausted {self.max_attempts} attempts")
        return False

    def _recoverable_shards(self) -> Tuple[str, ...]:
        """Crashed shards that are still mesh members (not DEAD).

        A crash-*event* source stays down — its keys are leaving it; the
        engine only resurrects shards the mesh still routes to.
        """
        from .membership import ShardState

        membership = self.mesh.membership
        out = []
        for shard_id in self.mesh.shard_ids:
            if not self.mesh.shard(shard_id).crashed:
                continue
            if shard_id not in membership.shard_ids:
                continue
            if membership.state(shard_id) is ShardState.DEAD:
                continue
            out.append(shard_id)
        return tuple(out)

    def _finish_event(self, event: MembershipEvent, report: RebalanceReport) -> None:
        membership = self.mesh.membership
        try:
            if event.kind == "join":
                membership.activate(event.shard_id)
            elif event.kind == "leave":
                membership.retire(event.shard_id)
        except ValueError as exc:
            report.errors.append(f"lifecycle transition failed: {exc}")
