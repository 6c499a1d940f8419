"""Cross-shard no-lost-message chaos harness for the mesh rebalancer.

One *point* of the matrix builds a fresh 3-shard mesh, runs a
deterministic workload (sends with interleaved consumer acks), fires one
membership event (``join`` / ``leave`` / ``crash``) and drives its
rebalance while injecting exactly one fault at one protocol step:

- ``crash-source`` — the shard shipping its partitions dies mid-handoff
  (the transfer must roll forward from its surviving journal);
- ``crash-dest`` — the receiving shard dies (the engine must fence the
  dead session and retry idempotently);
- ``link-drop`` — the transfer link eats frames (go-back-N must close
  the gap);
- ``link-delay`` — a slow shard: the link stalls, forcing retransmission
  without duplicate applies.

The *step* axis enumerates **every** protocol step of the event's clean
run (measured by a dry run), so each fault kind is injected at the
fence, each ship, the drain, the apply, the flip and the retire of every
handoff session — the full crash×step matrix the failover matrix
(:mod:`repro.chaos.failover`) applies to one link, generalized across
the mesh.

After the rebalance (plus recovery of every crashed shard still in the
mesh) each point asserts the mesh-global invariants:

- **no lost acked-or-accepted message** (the kernel's survivor oracle):
  every accepted, never-acked message id is found exactly once across
  live shards' backlogs and consumers, every *acked* id is found
  **nowhere** (a resurrected ack would be a double delivery), and no id
  that was never accepted appears;
- **no double-ownership**: every placement key has exactly one owner in
  the partition table and that owner is a live mesh member;
- **conservation**: the aggregated mesh ledger balances, handoff legs
  included;
- **availability**: while the fault fires, a probe send to a partition
  *not* involved in the handoff still lands (the mesh sheds only the
  affected partitions).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..broker.message import Message
from ..broker.queues import QueueConsumer
from ..mesh.membership import MembershipEvent, ShardState
from ..mesh.rebalance import HandoffSession, RebalanceEngine
from ..mesh.ring import placement_key
from ..mesh.sharded import ShardedBroker
from .kernel import ChaosPoint, ChaosReport, survivor_violations

__all__ = ["EVENT_KINDS", "FAULT_KINDS", "run_mesh_chaos_harness"]

FAULT_KINDS: Tuple[str, ...] = (
    "crash-source",
    "crash-dest",
    "link-drop",
    "link-delay",
)

EVENT_KINDS: Tuple[str, ...] = ("join", "leave", "crash")


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _build_mesh(
    seed: int, ops: int, n_queues: int
) -> Tuple[ShardedBroker, List[str], Dict[str, QueueConsumer], Set[int], Set[int], float]:
    """Fresh 3-shard mesh with a deterministic send/ack history."""
    mesh = ShardedBroker(["s0", "s1", "s2"], lease_duration=0.5)
    names = [f"q-{i}" for i in range(n_queues)]
    consumers: Dict[str, QueueConsumer] = {}
    for name in names:
        mesh.create_queue(name)
        consumer = QueueConsumer(f"c-{name}")
        mesh.attach_consumer(name, consumer)
        consumers[name] = consumer
    accepted: Set[int] = set()
    acked: Set[int] = set()
    now = 0.0
    ack_stride = 3 + seed % 3
    for i in range(ops):
        name = names[i % n_queues]
        message = Message(topic="mesh", body=f"op-{i}".encode())
        mesh.send(name, message, now=now)
        accepted.add(message.message_id)
        now += 0.001
        if i % ack_stride == ack_stride - 1:
            delivery = consumers[name].receive()
            if delivery is not None:
                consumers[name].ack(delivery)
                acked.add(delivery.message.message_id)
    return mesh, names, consumers, accepted, acked, now


def _fire_event(mesh: ShardedBroker, kind: str, now: float) -> MembershipEvent:
    if kind == "join":
        mesh.add_shard("s3")
        return mesh.membership.join("s3")
    if kind == "leave":
        return mesh.membership.leave("s2")
    if kind == "crash":
        mesh.crash_shard("s2", now=now)
        return mesh.membership.crash("s2")
    raise ValueError(f"unknown event kind {kind!r}")


def _inject(
    engine: RebalanceEngine, session: HandoffSession, fault: str
) -> None:
    mesh = engine.mesh
    if fault == "crash-source":
        if not mesh.shard(session.source).crashed:
            mesh.crash_shard(session.source, now=engine.now)
    elif fault == "crash-dest":
        if not mesh.shard(session.dest).crashed:
            mesh.crash_shard(session.dest, now=engine.now)
    elif fault == "link-drop":
        session.link.drop_next(2)
    elif fault == "link-delay":
        session.link.add_delay(0.05, until=engine.now + 0.2)
    else:
        raise ValueError(f"unknown fault kind {fault!r}")


def _probe(
    mesh: ShardedBroker,
    names: Sequence[str],
    session: HandoffSession,
    accepted: Set[int],
    now: float,
) -> Optional[bool]:
    """Send to a partition uninvolved in the handoff; None if none exists."""
    involved = {session.source, session.dest}
    for name in names:
        key = placement_key("queue", name)
        if mesh.membership.table.is_migrating(key):
            continue
        owner = mesh.membership.table.owner(key)
        if owner is None or owner in involved:
            continue
        if not mesh.shard(owner).available:
            continue
        before = (mesh.deferred_migrating, mesh.shed_unavailable)
        message = Message(topic="mesh", body=b"probe")
        mesh.send(name, message, now=now)
        landed = (mesh.deferred_migrating, mesh.shed_unavailable) == before
        if landed:
            accepted.add(message.message_id)
        return landed
    return None


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def _live_message_ids(mesh: ShardedBroker, live: Iterable[str]) -> List[int]:
    """Every message id held anywhere on the live shards (with repeats)."""
    found: List[int] = []
    for shard_id in sorted(live):
        shard = mesh.shard(shard_id)
        if shard.crashed:
            continue
        for queue in sorted(shard.broker.queues, key=lambda q: q.name):
            for message, _redelivered in queue._backlog:
                found.append(message.message_id)
            for consumer in queue.consumers:
                found.extend(d.message.message_id for d in consumer.inbox)
                found.extend(consumer.unacked)
    return found


def _verify(
    point: ChaosPoint,
    mesh: ShardedBroker,
    accepted: Set[int],
    acked: Set[int],
) -> None:
    membership = mesh.membership
    live = [
        shard_id
        for shard_id in membership.shard_ids
        if membership.state(shard_id) is not ShardState.DEAD
    ]
    # -- single live ownership ------------------------------------------
    for key in membership.table.keys():
        owner = membership.table.owner(key)
        if owner not in live:
            point.violations.append(f"key {key} owned by non-live {owner!r}")
        elif mesh.shard(owner).crashed:
            point.violations.append(f"key {key} owned by unrecovered {owner!r}")
    if membership.table.migrating_keys:
        point.violations.append(
            f"keys stuck migrating: {membership.table.migrating_keys}"
        )
    # -- exactly-once message survival ----------------------------------
    point.violations.extend(
        survivor_violations(_live_message_ids(mesh, live), accepted - acked, acked)
    )
    # -- conservation ---------------------------------------------------
    ledger = mesh.mesh_ledger()
    if not ledger.conserved:
        point.violations.append(f"mesh ledger imbalanced: {ledger}")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _run_point(
    seed: int,
    ops: int,
    n_queues: int,
    event_kind: str,
    fault: Optional[str],
    target_step: int,
) -> ChaosPoint:
    point = ChaosPoint(
        {"event": event_kind, "fault": fault if fault is not None else "none", "step": target_step}
    )
    mesh, names, _consumers, accepted, acked, now = _build_mesh(seed, ops, n_queues)
    event = _fire_event(mesh, event_kind, now)
    engine = RebalanceEngine(mesh)
    engine.now = now
    fired = [False]

    def hook(eng: RebalanceEngine, session: HandoffSession, step_index: int) -> None:
        if fired[0] or fault is None or step_index != target_step:
            return
        fired[0] = True
        _inject(eng, session, fault)
        # the engine invokes the hook inline, never from a worker pool
        point.probe_accepted = _probe(  # repro: ignore[RACE002]
            mesh, names, session, accepted, eng.now
        )

    report = engine.rebalance(event, hook=hook)
    point.attempts = report.attempts
    if not report.completed:
        point.violations.append(f"rebalance did not complete: {report.errors}")
    # Bring back every crashed shard the mesh still routes to.
    recoverable = [
        shard_id
        for shard_id in mesh.shard_ids
        if mesh.shard(shard_id).crashed
        and shard_id in mesh.membership.shard_ids
        and mesh.membership.state(shard_id) is not ShardState.DEAD
    ]
    if recoverable:
        recovery = mesh.recover(engine.now, shard_ids=recoverable)
        if not recovery.ok:
            point.violations.append(f"recovery failed: {recovery.to_dict()}")
    _verify(point, mesh, accepted, acked)
    return point


def _dry_run_steps(seed: int, ops: int, n_queues: int, event_kind: str) -> int:
    """Protocol steps in the clean (fault-free) run of one event."""
    mesh, _names, _consumers, _accepted, _acked, now = _build_mesh(seed, ops, n_queues)
    event = _fire_event(mesh, event_kind, now)
    engine = RebalanceEngine(mesh)
    engine.now = now
    report = engine.rebalance(event)
    if not report.completed:
        raise RuntimeError(
            f"clean {event_kind} rebalance did not complete: {report.errors}"
        )
    return engine.step_index


def run_mesh_chaos_harness(
    seed: int = 0,
    ops: int = 36,
    queues: int = 16,
    fault_kinds: Sequence[str] = FAULT_KINDS,
    event_kinds: Sequence[str] = EVENT_KINDS,
) -> ChaosReport:
    """Run the full event × fault × step matrix (one clean point each).

    The step axis covers every protocol step the clean run of each event
    executes, so the default matrix lands well above the 200-point bar.
    """
    report = ChaosReport({"seed": seed, "ops": ops, "queues": queues})
    for event_kind in event_kinds:
        steps = _dry_run_steps(seed, ops, queues, event_kind)
        report.points.append(_run_point(seed, ops, queues, event_kind, None, 0))
        for fault in fault_kinds:
            for step in range(steps):
                report.points.append(
                    _run_point(seed, ops, queues, event_kind, fault, step)
                )
    return report
