"""No-lost-ack chaos harness: crash the primary everywhere, lose nothing.

The PR-5 torn-write harness proved single-node recovery correct at every
byte offset.  This harness lifts the same every-crash-point discipline to
the replicated pair: a deterministic queue workload runs against the
primary while link faults fire, the primary is hard-crashed after
*every* workload step, the standby detects the lapsed lease and
promotes, and the promoted broker's state is checked against an
independent oracle fold of the primary's own journal.

The invariants, per crash point:

1. **no sync-acked message is ever lost** — every message live in the
   oracle fold of the client-acked record prefix is either in the
   promoted backlog or terminal in the standby's applied range;
2. **async loss is bounded by the shipped-lag window** — at most
   ``acked − standby_applied_at_crash`` records' worth of messages may
   be missing, never more;
3. **exactly-once backlog** — no duplicates, and no message the
   promoted broker knows to be acked is redelivered;
4. **failover completes** — the standby promotes within a small
   multiple of the lease duration, under every link-fault scenario.

Link-fault scenarios (drop, corruption, reorder, delay windows) exercise
the go-back-N shipping path, and a standby-disk scenario fails the
replica's own journal writes under it: a frame the standby could not
write is neither acknowledged nor folded, and the resend must land each
of its records exactly once.  The separate lease-pause check proves the
split-brain defence: a primary paused past its lease expiry and then
revived is fenced — its ack attempts raise
:class:`~repro.replication.lease.FencingError` and its client-visible
watermark never advances again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..broker.message import Message
from ..broker.queues import QueueConsumer
from ..broker.server import Broker
from ..durability.journal import JournalRecord, RecordKind
from ..durability.recovery import scan_disk
from .lease import FencingError
from .pair import ReplicatedPair, ReplicationConfig

__all__ = [
    "LinkScenario",
    "FailoverPointResult",
    "ReplicationHarnessReport",
    "run_replication_chaos_harness",
]

_QUEUE = "orders"


@dataclass(frozen=True)
class LinkScenario:
    """A named schedule of faults, keyed by workload step."""

    name: str
    #: ``(step, action, magnitude)`` triples; ``action`` is one of
    #: ``drop``/``corrupt``/``reorder`` (magnitude = frame count),
    #: ``delay`` (magnitude = extra seconds), ``standby-write-fault``
    #: (magnitude = writes of the standby's disk that fail) or
    #: ``pause``/``revive``.
    actions: Tuple[Tuple[int, str, float], ...] = ()


def _scenarios(dt: float) -> Tuple[LinkScenario, ...]:
    return (
        LinkScenario("clean"),
        LinkScenario("drop", ((4, "drop", 2), (11, "drop", 1))),
        LinkScenario("corrupt", ((5, "corrupt", 2),)),
        LinkScenario("reorder", ((6, "reorder", 2),)),
        LinkScenario("delay", ((3, "delay", 6 * dt),)),
        LinkScenario(
            "standby-write-fault",
            ((2, "standby-write-fault", 1), (9, "standby-write-fault", 2)),
        ),
    )


@dataclass(frozen=True)
class FailoverPointResult:
    """Outcome of one crash-and-failover run."""

    mode: str
    scenario: str
    crash_step: int
    acked_records: int
    applied_at_crash: int
    applied_at_promotion: int
    lost_acked: int
    detection_seconds: float
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ReplicationHarnessReport:
    """Aggregate result of one replication chaos run."""

    seed: int
    ops: int
    modes: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    points: int = 0
    max_async_loss: int = 0
    split_brain_checked: bool = False
    failures: List[FailoverPointResult] = field(default_factory=list)
    split_brain_violations: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        out = [
            f"{r.mode}/{r.scenario}@step{r.crash_step}: {v}"
            for r in self.failures
            for v in r.violations
        ]
        out.extend(f"lease-pause: {v}" for v in self.split_brain_violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.failures and not self.split_brain_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ops": self.ops,
            "modes": list(self.modes),
            "scenarios": list(self.scenarios),
            "points": self.points,
            "max_async_loss": self.max_async_loss,
            "split_brain_checked": self.split_brain_checked,
            "ok": self.ok,
            "violations": self.violations[:50],
        }


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _make_pair(mode: str, seed: int, dt: float) -> ReplicatedPair:
    config = ReplicationConfig(
        mode=mode,
        ship_interval=2 * dt,
        batch_size=4,
        lease_duration=20 * dt,
        renew_interval=5 * dt,
        link_delay=dt / 5,
        retransmit_timeout=3 * dt,
        segment_bytes=2048,
    )
    return ReplicatedPair(config, seed=seed)


def _apply_action(pair: ReplicatedPair, action: str, magnitude: float, now: float,
                  dt: float) -> None:
    if action == "drop":
        pair.link.drop_next(int(magnitude))
    elif action == "corrupt":
        pair.link.corrupt_next(int(magnitude))
    elif action == "reorder":
        pair.link.reorder_next(int(magnitude))
    elif action == "delay":
        pair.link.add_delay(magnitude, until=now + 5 * dt)
    elif action == "standby-write-fault":
        pair.standby.disk.fail_writes(int(magnitude))
    elif action == "pause":
        pair.pause_primary(now)
    elif action == "revive":
        pair.revive_primary(now)
    else:
        raise ValueError(f"unknown scenario action {action!r}")


def _step_workload(
    pair: ReplicatedPair, consumer: QueueConsumer, step: int, now: float
) -> None:
    """One deterministic workload operation: mostly sends, some acks."""
    queue = pair.primary.queues.create(_QUEUE)
    if not consumer.attached:
        queue.attach(consumer, now=now)
    if step % 3 == 2:
        delivery = consumer.receive()
        if delivery is not None:
            consumer.ack(delivery)
    else:
        queue.send(Message(topic=_QUEUE, properties={"n": step}), now=now)


def _run_to_crash(
    mode: str,
    scenario: LinkScenario,
    crash_step: int,
    seed: int,
    dt: float,
) -> Tuple[ReplicatedPair, int, int, float]:
    """Drive the workload through ``crash_step`` then kill the primary.

    Returns ``(pair, acked_at_crash, applied_at_crash, crash_time)``.
    """
    pair = _make_pair(mode, seed, dt)
    consumer = QueueConsumer("worker-1")
    for step in range(crash_step + 1):
        now = (step + 1) * dt
        for at, action, magnitude in scenario.actions:
            if at == step:
                _apply_action(pair, action, magnitude, now, dt)
        _step_workload(pair, consumer, step, now)
        pair.tick(now)
    crash_time = (crash_step + 1) * dt + dt / 2
    acked = pair.client_acked_records
    applied = pair.standby.records_applied
    pair.crash_primary(crash_time)
    return pair, acked, applied, crash_time


def _await_promotion(pair: ReplicatedPair, crash_time: float, dt: float) -> float:
    """Tick the surviving side until the standby promotes; returns that time."""
    deadline = crash_time + 3 * pair.config.lease_duration
    now = crash_time
    while now <= deadline:
        now += dt
        pair.tick(now)  # drains in-flight frames; the primary is dead
        pair.maybe_promote(now)
        if pair.promoted:
            return now
    return now


# ----------------------------------------------------------------------
# Oracle: queue-domain fold over a record prefix
# ----------------------------------------------------------------------
def _fold_queue(records: Sequence[JournalRecord]) -> Tuple[Set[int], Set[int]]:
    """``(live, terminal)`` queue message-ids after folding ``records``."""
    live: Set[int] = set()
    terminal: Set[int] = set()
    for record in records:
        mid = record.message_id
        if record.kind is RecordKind.PUBLISH:
            if record.domain == "queue":
                live.add(mid)
        elif record.kind in (RecordKind.ACK, RecordKind.EXPIRE):
            if mid in live:
                live.discard(mid)
                terminal.add(mid)
        elif record.kind is RecordKind.CHECKPOINT:  # pragma: no cover
            raise AssertionError("the harness workload never checkpoints")
    return live, terminal


def _drain_backlog(broker: Broker) -> List[int]:
    """Message-ids in the promoted queue backlog, via the public consumer API."""
    queue = broker.queues.create(_QUEUE)
    consumer = QueueConsumer("harness-verifier")
    queue.attach(consumer)
    ids: List[int] = []
    while True:
        delivery = consumer.receive()
        if delivery is None:
            break
        ids.append(delivery.message.message_id)
    return ids


def _verify_point(
    pair: ReplicatedPair,
    mode: str,
    acked: int,
    applied_at_crash: int,
    promoted_at: float,
) -> Tuple[List[str], int, int]:
    """Check the failover invariants; returns (violations, lost, applied)."""
    violations: List[str] = []
    promotion = pair.promotion
    if not pair.promoted or promotion is None or promotion.broker is None:
        detail = promotion.errors if promotion is not None else "never attempted"
        return [f"standby failed to promote: {detail}"], 0, 0
    if promotion.recovery is not None and promotion.recovery.errors:
        violations.append(f"promotion recovery errors: {promotion.recovery.errors}")

    records = scan_disk(pair.primary_disk).records
    applied = promotion.records_applied
    live_acked, _terminal_acked = _fold_queue(records[:acked])
    live_applied, terminal_applied = _fold_queue(records[:applied])

    backlog = _drain_backlog(promotion.broker)
    violations.extend(promotion.broker.queues.imbalances())
    backlog_set = set(backlog)
    if len(backlog) != len(backlog_set):
        violations.append(f"duplicate messages in promoted backlog: {sorted(backlog)}")
    leaked = terminal_applied & backlog_set
    if leaked:
        violations.append(f"acked messages redelivered after failover: {sorted(leaked)}")
    if backlog_set != live_applied:
        violations.append(
            f"promoted backlog diverges from the replica fold: "
            f"missing {sorted(live_applied - backlog_set)}, "
            f"extra {sorted(backlog_set - live_applied)}"
        )

    lost = {
        mid
        for mid in live_acked
        if mid not in backlog_set and mid not in terminal_applied
    }
    if mode == "sync":
        if applied < acked:
            violations.append(
                f"sync ack watermark {acked} ahead of standby applied {applied}"
            )
        if lost:
            violations.append(f"sync-acked messages lost: {sorted(lost)}")
    else:
        window = max(acked - applied_at_crash, 0)
        if len(lost) > window:
            violations.append(
                f"async loss {len(lost)} exceeds the shipped-lag window {window} "
                f"(lost {sorted(lost)})"
            )
    detection = promoted_at - (pair.crashed_at or promoted_at)
    if detection > 2 * pair.config.lease_duration:
        violations.append(
            f"failover detection took {detection:.3f}s "
            f"(lease duration {pair.config.lease_duration:.3f}s)"
        )
    return violations, len(lost), applied


# ----------------------------------------------------------------------
# Split-brain: the lease-pause scenario
# ----------------------------------------------------------------------
def _lease_pause_check(mode: str, seed: int, ops: int, dt: float) -> List[str]:
    """Pause the primary past expiry, promote, revive — assert it is fenced."""
    violations: List[str] = []
    pair = _make_pair(mode, seed, dt)
    consumer = QueueConsumer("worker-1")
    pause_step = max(ops // 2, 1)
    now = 0.0
    for step in range(ops):
        now = (step + 1) * dt
        if step == pause_step:
            pair.pause_primary(now)
        _step_workload(pair, consumer, step, now)
        pair.tick(now)
        pair.maybe_promote(now)
    # Run the clock past the lease and let the standby take over.
    deadline = now + 3 * pair.config.lease_duration
    while not pair.promoted and now <= deadline:
        now += dt
        pair.tick(now)
        pair.maybe_promote(now)
    if not pair.promoted or pair.promotion is None:
        return [f"standby never promoted after a lease pause (mode={mode})"]
    acked_at_promotion = pair.client_acked_records
    old_epoch = pair.primary_epoch
    if pair.promotion.epoch <= old_epoch:
        violations.append(
            f"promotion epoch {pair.promotion.epoch} did not supersede the "
            f"paused primary's epoch {old_epoch}"
        )
    # The primary comes back, writes locally, and tries to ack.
    pair.revive_primary(now)
    for extra in range(3):
        now += dt
        pair.primary.queues.create(_QUEUE).send(
            Message(topic=_QUEUE, properties={"n": ops + extra}), now=now
        )
        pair.tick(now)
    if not pair.primary_fenced:
        violations.append("revived primary was not fenced")
    if pair.client_acked_records != acked_at_promotion:
        violations.append(
            f"revived primary advanced the ack watermark "
            f"{acked_at_promotion} -> {pair.client_acked_records} (double-ack)"
        )
    try:
        pair.acked_records(now)
        violations.append("fenced primary ack did not raise FencingError")
    except FencingError:
        pass
    if pair.lease.fencing_rejections == 0:
        violations.append("lease coordinator recorded no fencing rejections")
    return violations


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_replication_chaos_harness(
    seed: int = 0,
    ops: int = 24,
    modes: Sequence[str] = ("sync", "async"),
    dt: float = 0.01,
) -> ReplicationHarnessReport:
    """Crash the primary after every workload step, under every scenario.

    ``modes × scenarios × ops`` independent pair runs, each crashed at a
    different step and failed over, plus one lease-pause split-brain
    check per mode.  A report with ``ok=False`` carries human-readable
    violations — the CLI and the test suite both fail on any.
    """
    if ops < 2:
        raise ValueError(f"ops must be >= 2, got {ops}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    scenarios = _scenarios(dt)
    report = ReplicationHarnessReport(
        seed=seed,
        ops=ops,
        modes=tuple(modes),
        scenarios=tuple(s.name for s in scenarios),
    )
    for mode in modes:
        for scenario in scenarios:
            for crash_step in range(ops):
                pair, acked, applied_at_crash, crash_time = _run_to_crash(
                    mode, scenario, crash_step, seed, dt
                )
                promoted_at = _await_promotion(pair, crash_time, dt)
                violations, lost, applied = _verify_point(
                    pair, mode, acked, applied_at_crash, promoted_at
                )
                report.points += 1
                if mode == "async":
                    report.max_async_loss = max(report.max_async_loss, lost)
                if violations:
                    report.failures.append(
                        FailoverPointResult(
                            mode=mode,
                            scenario=scenario.name,
                            crash_step=crash_step,
                            acked_records=acked,
                            applied_at_crash=applied_at_crash,
                            applied_at_promotion=applied,
                            lost_acked=lost,
                            detection_seconds=promoted_at - crash_time,
                            violations=tuple(violations),
                        )
                    )
        report.split_brain_violations.extend(
            _lease_pause_check(mode, seed, ops, dt)
        )
    report.split_brain_checked = True
    return report
