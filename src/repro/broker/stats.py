"""Broker-side statistics.

Tracks the quantities the paper measures: received messages, dispatched
copies, filter evaluations, plus bookkeeping for expired and dropped
messages.  The testbed reads these through windowed counters; this class
is the broker's own unconditional ledger.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict

__all__ = ["BrokerStats"]


@dataclass
class BrokerStats:
    """Running totals over the broker's lifetime."""

    received: int = 0
    dispatched: int = 0
    filters_evaluated: int = 0
    expired: int = 0
    #: Copies not delivered because a non-durable subscriber was offline.
    dropped_offline: int = 0
    #: Messages retained for offline durable subscribers.
    retained: int = 0
    # -- fault-model ledger (see repro.faults) -------------------------
    #: Server crashes survived.
    crashes: int = 0
    #: Messages lost to a crash (non-persistent state that died with the
    #: server).
    lost_on_crash: int = 0
    #: Messages served again after a failure (JMSRedelivered).
    redelivered: int = 0
    #: Messages routed to a dead-letter store after exhausting their
    #: redelivery budget or arriving corrupted.
    dead_lettered: int = 0
    #: Messages dropped by an injected network fault.
    dropped_by_fault: int = 0
    # -- overload-control ledger (see repro.overload) ------------------
    #: Messages whose TTL ran out while they waited in a queue and that
    #: were shed at drain time — distinct from DLQ'd and dropped messages
    #: so overload shedding stays attributable.
    expired_on_drain: int = 0
    #: Arrivals tail-dropped by a full bounded buffer (DROP_NEW).
    dropped_new: int = 0
    #: Queued messages evicted to admit a newer arrival (DROP_OLDEST).
    dropped_oldest: int = 0
    #: Queued messages evicted because their TTL/deadline could no longer
    #: be met given the backlog estimate (DEADLINE_SHED).
    deadline_shed: int = 0
    #: Publisher sends rejected by the admission controller (estimated
    #: utilization above the watermark).
    admission_rejected: int = 0
    #: Copies evicted from a bounded subscriber inbox (per-subscription
    #: queue overflow).
    inbox_dropped: int = 0
    # -- resilience ledger (see repro.resilience) ----------------------
    #: Accepted messages shed *unserved* because their deadline budget
    #: ran out while they were in flight (queued at ingress, parked in a
    #: consumer inbox, or crossing a mesh hop) — deadline propagation's
    #: fate, distinct from ``expired_on_drain`` (shed at queue drain)
    #: and ``deadline_shed`` (shed predictively by the backlog model).
    expired_in_flight: int = 0
    #: Hedge duplicates dropped at the service boundary — losing copies
    #: of hedged races; zero double-deliveries is the hedging invariant.
    hedge_duplicates: int = 0
    # -- batched publish ledger (see Broker.publish_batch) -------------
    #: Multi-message fingerprint groups served warm by one memo probe.
    batch_hits: int = 0
    #: Messages covered by those warm group probes (each skipped its
    #: entire filter evaluation AND its individual memo probe).
    batch_messages: int = 0
    #: Current broker health state (written by the health monitor of
    #: :class:`repro.testbed.simserver.SimulatedJMSServer`).
    health: str = "healthy"
    #: Health state-machine transitions observed (flap indicator).
    health_transitions: int = 0
    per_topic_received: Counter = field(default_factory=Counter)
    per_topic_dispatched: Counter = field(default_factory=Counter)

    @property
    def overall(self) -> int:
        """Received plus dispatched — the paper's overall throughput count."""
        return self.received + self.dispatched

    @property
    def mean_replication_grade(self) -> float:
        """Empirical ``E[R]`` over all received messages."""
        if self.received == 0:
            return 0.0
        return self.dispatched / self.received

    @property
    def mean_filters_per_message(self) -> float:
        """Empirical ``n_fltr`` actually evaluated per message."""
        if self.received == 0:
            return 0.0
        return self.filters_evaluated / self.received

    def record(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the total ``name`` — the by-name mutation point
        for everything off the dispatch hot path (queue ledgers mirror
        through it; the testbed and recovery book their fates through
        it).  An unknown name raises ``AttributeError``."""
        setattr(self, name, getattr(self, name) + n)

    def record_receive(self, topic: str) -> None:
        self.received += 1
        self.per_topic_received[topic] += 1

    def record_dispatch(self, topic: str, copies: int, filters_evaluated: int) -> None:
        self.dispatched += copies
        self.filters_evaluated += filters_evaluated
        self.per_topic_dispatched[topic] += copies

    def record_batch_hit(self, messages: int) -> None:
        """One warm memo probe served a whole ``messages``-strong group."""
        self.batch_hits += 1
        self.batch_messages += messages

    def record_delivery_outcome(
        self, inbox_dropped: int = 0, retained: int = 0, dropped_offline: int = 0
    ) -> None:
        """Fold one subscription's delivery outcome into the counters.

        Serialization point for the dispatch stage: mutating these counters
        only here keeps the hot path safe to hand to an m-worker pool later.
        """
        self.inbox_dropped += inbox_dropped
        self.retained += retained
        self.dropped_offline += dropped_offline

    def observe_health(self, state: str) -> None:
        """The health monitor moved to ``state`` (one transition)."""
        self.health = state
        self.health_transitions += 1

    def snapshot(self) -> Dict[str, "float | str"]:
        """Plain-dict view (for logging and result tables): every scalar
        field plus the derived ``overall`` and ``mean_replication_grade``."""
        view: Dict[str, "float | str"] = {
            f.name: value
            for f in fields(self)
            if not isinstance(value := getattr(self, f.name), Counter)
        }
        view["overall"] = self.overall
        view["mean_replication_grade"] = self.mean_replication_grade
        return view
