"""The simulated JMS server machine.

Combines the broker brain (:class:`repro.broker.Broker`), the virtual CPU
(:class:`repro.simulation.cpu.CpuCostModel`) and publisher push-back
(:class:`repro.broker.flow_control.FlowController`) into one single-CPU
server attached to a simulation engine — the stand-in for the paper's
3.2 GHz FioranoMQ machine.

Message lifecycle — the stages the fates of :data:`INGRESS_FATES` hang on:

1. **admit**: a publisher asks for an ingress credit (push-back blocks
   it when the server buffer is full); a down server, the admission
   controller or a SHEDDING state refuse it, and an injected network
   fault may eat the message after the grant — all *before* acceptance;
2. **enqueue**: the accepted message joins the FIFO ingress buffer
   (*received* counted here, like the publisher-side send counter of the
   paper); a full bounded buffer sheds by its drop policy, and a crash
   loses the non-persistent backlog;
3. **shed-or-serve**: the CPU takes messages sequentially; a head whose
   deadline passed or whose id already completed leaves unserved (under
   the postures that say so), every other is charged
   ``t_rcv + n_checked · t_fltr + R · t_tx`` of virtual time;
4. **complete**: the copies appear in the subscriber inboxes
   (*dispatched* counted here) and the credit is released.

Fault model (see :mod:`repro.faults`): the server carries an explicit
up/down state.  :meth:`SimulatedJMSServer.crash` stops service, fails
blocked publishers fast, loses non-persistent ingress messages, and keeps
persistent ones journalled for redelivery; :meth:`restart` resumes
service and recovers the broker (durable subscriptions reconnect, the
filter index is rebuilt).  Injected degradations (slow-consumer ``t_tx``
inflation, message drop/corruption) are also applied here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..broker import Broker, FlowController, Message, PublishResult
from ..broker.errors import (
    ClientTimeoutError,
    ServerOverloadedError,
    ServerUnavailableError,
)
from ..broker.ledger import Fate, LedgerBase, Role, ledger_class
from ..broker.message import DeliveryMode
from ..broker.queues import DropPolicy
from ..overload.admission import AdmissionController
from ..overload.bounded import BoundedMessageQueue
from ..overload.health import HealthMonitor, HealthState
from ..overload.policy import OverloadConfig
from ..simulation import (
    BusyTracker,
    CpuCostModel,
    Engine,
    MeasurementWindow,
    SampleStats,
    ScheduledEvent,
    WindowedCounter,
)

__all__ = ["SimulatedJMSServer", "SubmitHandle", "INGRESS_FATES", "IngressLedger"]

_A, _T, _I = Role.ACCEPTED, Role.TERMINAL, Role.INFORMATIONAL

#: The server's population — messages admitted to its ingress — on the
#: machinery of :mod:`repro.broker.ledger` (name, role, mirror, why).
INGRESS_FATES: Tuple[Fate, ...] = (
    Fate("accepted", _A, None, "messages admitted to the ingress buffer, after the credit "
         "grant and the injected network faults"),
    Fate("delivered", _T, None, "served and dispatched; the message in service at a crash "
         "had already published, so it is rolled forward into this row", "completed"),
    Fate("expired", _T, None, "served — charged its cost — but found expired by the broker's "
         "admit stage: the paper's model serves everything it accepted", "completed"),
    Fate("lost_on_crash", _T, "lost_on_crash", "non-persistent backlog that died with the "
         "server (persistent backlog survives through the journal)"),
    Fate("dropped_new", _T, "dropped_new", "arrivals tail-dropped by the full bounded ingress "
         "buffer"),
    Fate("dropped_oldest", _T, "dropped_oldest", "queued messages evicted to admit newer "
         "arrivals"),
    Fate("deadline_shed", _T, "deadline_shed", "queued messages shed because their deadline "
         "became unmeetable given the backlog estimate"),
    Fate("expired_in_flight", _T, "expired_in_flight", "accepted messages shed unserved because "
         "their deadline passed while they queued (shed_expired_before_service)"),
    Fate("hedge_duplicates", _T, "hedge_duplicates", "hedge duplicates dropped at the service "
         "boundary (hedge_dedup) — the losing copies of hedged races"),
    Fate("completed", _I, None, "every service that ran to its end, delivered or expired"),
    Fate("admission_rejected", _I, "admission_rejected", "sends refused by the admission "
         "controller"),
    Fate("rejected_submits", _I, None, "every submit answered through on_reject, whatever the "
         "reason (down, admission, shedding, a reported tail drop, crash, client timeout)"),
    Fate("waiters_shed", _I, None, "publishers rejected promptly because of SHEDDING: waiters "
         "drained at the transition plus submits that would have blocked while the state was "
         "already SHEDDING"),
    Fate("client_timeouts", _I, None, "blocked submits failed by an injected CLIENT_TIMEOUT "
         "fault"),
    Fate("crashes", _I, None, "times the server went down hard"),
    Fate("dropped_by_fault", _I, "dropped_by_fault", "vanished to an injected network fault "
         "after the credit grant and *before* acceptance — never joins the population (the "
         "analogue of the queue table's send-time expired)"),
    Fate("corrupted", _I, "dead_lettered", "arrived corrupted and was quarantined to the "
         "server-side DLQ at receive — likewise before acceptance"),
    Fate("redelivered", _I, "redelivered", "persistent backlog flagged JMSRedelivered by a "
         "crash; every crash re-marks its survivors"),
    Fate("served_again", _I, None, "completions of a message carrying that flag — a different "
         "event from the marking: marked at two crashes, served once"),
)


@ledger_class(INGRESS_FATES, gauges=("backlog", "in_service"))
class IngressLedger(LedgerBase):
    """The ingress population's ledger: one slot per :data:`INGRESS_FATES`
    counter plus the gauges ``backlog`` (waiting in the ingress buffer)
    and ``in_service`` (0 or 1: on the CPU, or parked there by a pause)."""


#: The fate a bounded-ingress eviction is booked to.
_SHED_FATE = {
    DropPolicy.DROP_NEW: "dropped_new",
    DropPolicy.DROP_OLDEST: "dropped_oldest",
    DropPolicy.DEADLINE_SHED: "deadline_shed",
}


class SubmitHandle:
    """The publisher's view of one ``submit`` call.

    Lets a resilient publisher observe the outcome (``accepted`` /
    ``rejected``) and *cancel* a submit that is still blocked on
    push-back — the timeout path of the retry logic.
    """

    __slots__ = (
        "message",
        "accepted",
        "rejected",
        "cancelled",
        "error",
        "_withdraw",
        "_on_reject",
    )

    def __init__(
        self,
        message: Message,
        on_reject: Optional[Callable[[Exception], None]] = None,
    ):
        self.message = message
        self.accepted = False
        self.rejected = False
        self.cancelled = False
        self.error: Optional[Exception] = None
        self._withdraw: Optional[Callable[[], bool]] = None
        self._on_reject = on_reject

    @property
    def pending(self) -> bool:
        """Still blocked on push-back (neither accepted nor failed)."""
        return not (self.accepted or self.rejected or self.cancelled)

    def accept(self) -> None:
        """The server admitted the message (called from the credit grant,
        possibly long after ``submit`` returned)."""
        self.accepted = True

    def cancel(self) -> bool:
        """Withdraw a submit still waiting for a credit.

        Returns ``True`` when the waiter was removed before being granted;
        ``False`` when the submit already completed (or failed).
        """
        if not self.pending or self._withdraw is None:
            return False
        if self._withdraw():
            self.cancelled = True
            return True
        return False


class SimulatedJMSServer:
    """A single-CPU JMS server in virtual time.

    Parameters
    ----------
    engine:
        The simulation engine.
    broker:
        The broker with topics and subscriptions already configured.
    cpu:
        The CPU cost model (Table I constants, optionally jittered).
    window:
        Measurement window for the throughput counters.
    buffer_capacity:
        Ingress buffer size; publishers block (push-back) when it is full.
        The paper observed no loss, so the buffer never drops.
    overload:
        Optional overload-control posture (see
        :class:`repro.overload.policy.OverloadConfig`).  ``BLOCK`` keeps
        push-back semantics but adds admission control and prompt waiter
        shedding; the drop policies replace push-back with a bounded
        ingress buffer that sheds server-side — the M/G/1/K regime.
    report_drops:
        In drop-policy mode, surface a tail drop of the *arriving*
        message to its publisher as a synchronous rejection
        (``on_reject`` with :class:`ServerOverloadedError`) instead of
        the default fire-and-forget silence.  The server-side shed
        ledger is unchanged; this only lets loss-retry clients observe
        the loss channel the M/G/1/K model prices
        (:mod:`repro.core.resilience`).
    shed_expired_before_service:
        Deadline propagation at the service boundary: a popped message
        whose ``expiration`` already passed is shed at (virtual) zero
        CPU cost and counted ``expired_in_flight`` instead of being
        served as dead work.  Off by default — the paper's model serves
        everything it accepted.
    hedge_dedup:
        Recognise a message whose ``message_id`` already completed and
        drop it at the service boundary — the broker half of hedged
        requests (the losing duplicate must never dispatch twice).
    """

    def __init__(
        self,
        engine: Engine,
        broker: Broker,
        cpu: CpuCostModel,
        window: MeasurementWindow,
        buffer_capacity: int = 64,
        overload: Optional[OverloadConfig] = None,
        report_drops: bool = False,
        shed_expired_before_service: bool = False,
        hedge_dedup: bool = False,
    ):
        self.engine = engine
        self.broker = broker
        self.cpu = cpu
        self.window = window
        self.overload = overload
        self.report_drops = report_drops
        self.shed_expired_before_service = shed_expired_before_service
        self.hedge_dedup = hedge_dedup
        #: Every counter of this server (see :data:`INGRESS_FATES`).
        self.ledger = IngressLedger(broker.stats)
        # -- overload-control state -------------------------------------
        #: Push-back (the paper's posture): every message in the system
        #: holds a credit, and the credits bound it — the ingress buffer
        #: itself is unbounded.  Under a drop policy the buffer is bounded
        #: and sheds server-side; nothing holds a credit.
        self._push_back = overload is None or overload.blocking
        self._ingress: BoundedMessageQueue[Tuple[Message, float]] = BoundedMessageQueue(None)
        self.admission: Optional[AdmissionController] = None
        self.health: Optional[HealthMonitor] = None
        if overload is not None:
            if overload.blocking:
                buffer_capacity = overload.capacity  # K = in service + waiting
            else:
                self._ingress = overload.make_ingress()
            self.admission = overload.make_admission()
            self.health = overload.make_health_monitor(
                on_transition=self._on_health_transition
            )
        self.flow = FlowController(buffer_capacity)
        self.received = WindowedCounter(window, name="received")
        self.dispatched = WindowedCounter(window, name="dispatched")
        self.busy = BusyTracker(window=window)
        self.service_times = SampleStats(name="service-time", window=window)
        self.waiting_times = SampleStats(name="waiting-time", window=window)
        self._serving = False
        # -- fault-model state ------------------------------------------
        self.up = True
        #: Slow-consumer degradation: multiplies the transmit (``t_tx``)
        #: share of every service; 1.0 = healthy.
        self.slowdown = 1.0
        #: Corrupted messages quarantined at receive (server-side DLQ).
        self.dead_letters: List[Message] = []
        self._drop_next = 0
        self._corrupt_next = 0
        #: PROCESS_PAUSE state: a paused server accepts messages but its
        #: CPU is frozen (GC-style stall); the interrupted service
        #: resumes with its remaining cost intact.
        self.paused = False
        self._pause_remaining: Optional[float] = None
        self._completed_ids: Set[int] = set()
        self._service_event: Optional[ScheduledEvent] = None
        self._in_service: Optional[PublishResult] = None
        self._pending: Dict[Callable[[], None], SubmitHandle] = {}

    # ------------------------------------------------------------------
    # Publisher-facing API
    # ------------------------------------------------------------------
    def submit(
        self,
        message: Message,
        on_accept: Optional[Callable[[], None]] = None,
        on_reject: Optional[Callable[[Exception], None]] = None,
    ) -> SubmitHandle:
        """Offer a message; ``on_accept`` fires when a credit is granted.

        Saturated publishers pass a continuation that publishes their next
        message; Poisson publishers pass ``None`` (open arrivals, large
        buffer, no loss — the M/G/1-∞ assumption).  While the server is
        down the submit *fails fast*: ``on_reject`` (if any) is called with
        :class:`ServerUnavailableError` and the rejection is counted.  The
        returned :class:`SubmitHandle` lets the caller cancel a submit that
        is still blocked on push-back (see :mod:`repro.faults`).
        """
        handle = SubmitHandle(message, on_reject=on_reject)
        if not self.up:
            self._reject(
                handle, ServerUnavailableError(f"server down at t={self.engine.now:g}")
            )
            return handle
        if self.admission is not None:
            admitted = self.admission.admit(self.engine.now)
            self._observe_health()
            if not admitted:
                self.ledger.record("admission_rejected")
                self._reject(
                    handle,
                    ServerOverloadedError(
                        f"admission refused at t={self.engine.now:g} "
                        f"(estimated utilization {self.admission.utilization():.2f})"
                    ),
                )
                return handle
        if not self._push_back:
            # Drop-policy mode: the submit completes immediately — any
            # shedding happens server-side and is visible in the ledger,
            # not to the publisher (fire-and-forget send semantics),
            # unless ``report_drops`` surfaces a tail drop of this very
            # message as a synchronous rejection for loss-retry clients.
            survived = self._accept(message)
            if self.report_drops and not survived:
                self._reject(
                    handle,
                    ServerOverloadedError(
                        f"ingress buffer full at t={self.engine.now:g}"
                    ),
                )
                return handle
            handle.accept()
            if on_accept is not None:
                on_accept()
            return handle

        if (
            self.health is not None
            and self.health.state is HealthState.SHEDDING
            and self.flow.available == 0
        ):
            # The submit would block, but a SHEDDING server will not free
            # a credit any time soon: fail fast instead of queueing a
            # waiter that the next transition would have to drain anyway.
            self.ledger.record("waiters_shed")
            self._reject(
                handle,
                ServerOverloadedError(f"server shedding at t={self.engine.now:g}"),
            )
            return handle

        def granted() -> None:
            self._pending.pop(granted, None)
            handle.accept()
            self._accept(message)
            if on_accept is not None:
                on_accept()

        def withdraw() -> bool:
            if self.flow.cancel(granted):
                self._pending.pop(granted, None)
                return True
            return False

        handle._withdraw = withdraw
        self._pending[granted] = handle
        self.flow.acquire(granted)
        return handle

    def _reject(self, handle: SubmitHandle, error: Exception) -> None:
        handle.rejected = True
        handle.error = error
        self.ledger.record("rejected_submits")
        if handle._on_reject is not None:
            handle._on_reject(error)

    def _release_credit(self) -> None:
        """Return the credit of a message that left the system — which
        may synchronously admit a blocked publisher.  The one place that
        knows only push-back messages hold one."""
        if self._push_back:
            self.flow.release()

    def _accept(self, message: Message) -> bool:
        """Admit one message; ``False`` means *this* arrival was shed
        (tail-dropped by the bounded ingress buffer)."""
        now = self.engine.now
        if self._drop_next > 0:
            # Injected network fault: the message vanishes after the
            # credit grant; the credit returns immediately.
            self._drop_next -= 1
            self.ledger.record("dropped_by_fault")
            self._release_credit()
            return True
        if self._corrupt_next > 0:
            # Injected corruption: quarantined to the server-side DLQ.
            self._corrupt_next -= 1
            self.dead_letters.append(message)
            self.ledger.record("corrupted")
            self._release_credit()
            return True
        message.timestamp = now
        self.ledger.record("accepted")
        self.received.record(now)
        shed = self._ingress.offer((message, now), now, deadline=message.expiration)
        if shed is not None:
            self.ledger.record(_SHED_FATE[shed.policy])
        if not self._serving and not self.paused and self._ingress:
            self._start_service()
        return shed is None or not shed.was_new

    def closed_ledger(self) -> IngressLedger:
        """A copy of :attr:`ledger` closed with the two in-system gauges
        (ingress backlog; the message on the CPU) — the form ``conserved``
        / ``assert_conserved`` hold on, in every posture, at any instant."""
        return self.ledger.closed(
            backlog=len(self._ingress), in_service=int(self._in_service is not None)
        )

    # ------------------------------------------------------------------
    # CPU service loop
    # ------------------------------------------------------------------
    def _start_service(self) -> None:
        now = self.engine.now
        # Claim the CPU before popping: shedding an expired head may
        # release a credit whose hand-off synchronously admits a blocked
        # publisher, and that admission must queue, not start a second
        # concurrent service.
        self._serving = True
        while True:
            if not self._ingress:
                self._serving = False
                self.busy.idle(now)
                return
            message, arrival_time = self._ingress.popleft()
            if self.shed_expired_before_service and message.expired(now):
                # Deadline propagation: the budget ran out while the
                # message queued — shed it unserved instead of burning a
                # full service on dead work.
                unserved = "expired_in_flight"
            elif self.hedge_dedup and message.message_id in self._completed_ids:
                # A hedge duplicate lost the race: its primary already
                # completed, so it is dropped at the service boundary —
                # the dispatch memo never sees it twice.
                unserved = "hedge_duplicates"
            else:
                break
            self.ledger.record(unserved)
            self._release_credit()
        self.waiting_times.record(now - arrival_time, time=arrival_time)
        self.busy.busy(now)
        result = self.broker.publish(message, now=now)
        cost = self.cpu.message_cost(
            filters_evaluated=result.filters_evaluated,
            copies_sent=result.replication_grade,
            payload_bytes=len(message.body),
        )
        total = cost.receive + cost.filtering + cost.transmit * self.slowdown
        self.service_times.record(total, time=now)
        if self.admission is not None:
            self.admission.observe_service(total)
            if (
                self.overload is not None
                and self.overload.drain_rate is None
                and self.admission.service_mean > 0
            ):
                # Keep the deadline-shed horizon tracking the live
                # service-time estimate.
                self._ingress.drain_rate = 1.0 / self.admission.service_mean
        self._in_service = result
        self._service_event = self.engine.call_in(
            total, lambda: self._finish_service(result)
        )

    def _finish_service(self, result: PublishResult) -> None:
        self._service_event = None
        self._in_service = None
        self._count_completion(result)
        # Keep _serving True while releasing: the credit hand-off may
        # synchronously admit a blocked publisher's message, which must
        # queue rather than start a second, concurrent service.
        self._release_credit()
        self._observe_health()
        self._start_service()  # the next message, or idle on an empty buffer

    def _count_completion(self, result: PublishResult) -> None:
        self.dispatched.record(self.engine.now, count=result.replication_grade)
        self.ledger.record("expired" if result.expired else "delivered")
        if result.message.redelivered:
            self.ledger.record("served_again")
        if self.hedge_dedup:
            self._completed_ids.add(result.message.message_id)

    # ------------------------------------------------------------------
    # Overload control: health tracking and waiter shedding
    # ------------------------------------------------------------------
    def _observe_health(self) -> None:
        if self.health is None or self.admission is None:
            return
        self.health.observe(self.admission.utilization(), self.engine.now)

    def _on_health_transition(
        self, old: HealthState, new: HealthState, now: float
    ) -> None:
        self.broker.stats.observe_health(new.value)
        if new is HealthState.SHEDDING:
            # Publishers blocked on push-back credits must observe the
            # transition *now*, not after their full credit timeout: a
            # SHEDDING server will not free a credit for them any time
            # soon, and failing fast lets their retry loops back off.
            for grant in self.flow.drain_waiters():
                handle = self._pending.pop(grant, None)
                if handle is not None:
                    self.ledger.record("waiters_shed")
                    self._reject(
                        handle,
                        ServerOverloadedError(f"server shedding at t={now:g}"),
                    )

    @property
    def health_state(self) -> HealthState:
        return self.health.state if self.health is not None else HealthState.HEALTHY

    # ------------------------------------------------------------------
    # Fault model: crash / restart / degradations
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the server down hard.

        In-flight copies of the message being served had already left the
        broker (``publish`` ran at service start), so that message is
        rolled *forward* and counted; everything else follows the
        journalled-persistence rules: persistent ingress messages survive
        for redelivery after :meth:`restart`, non-persistent ones are
        lost, and publishers blocked on push-back are failed fast.
        """
        if not self.up:
            raise ServerUnavailableError("crash() on a server that is already down")
        now = self.engine.now
        self.up = False
        self.ledger.record("crashes")
        # 1. the message in service completes atomically at crash time
        #    (also the paused case: PROCESS_PAUSE parks the in-service
        #    message with its event cancelled, but it already published).
        if self._service_event is not None:
            self._service_event.cancel()
            self._service_event = None
        if self._in_service is not None:
            result = self._in_service
            self._in_service = None
            self._count_completion(result)
        self.paused = False
        self._pause_remaining = None
        self._serving = False
        self.busy.idle(now)
        # 2. blocked publishers fail fast; their credits died with the
        #    server (reset before re-acquiring survivor credits).
        abandoned = self.flow.reset()
        for grant in abandoned:
            handle = self._pending.pop(grant, None)
            if handle is not None:
                self._reject(handle, ServerUnavailableError(f"server crashed at t={now:g}"))
        # 3. ingress buffer: persistent messages survive via the journal
        #    (flagged redelivered, each re-taking a push-back credit),
        #    non-persistent ones are lost.
        survivors = []
        for entry in self._ingress.entries():
            (message, _arrival), _deadline = entry
            if message.delivery_mode is DeliveryMode.PERSISTENT:
                message.mark_redelivered()
                self.ledger.record("redelivered")
                if self._push_back:
                    took = self.flow.try_acquire()
                    assert took, "survivor exceeded ingress capacity"
                survivors.append(entry)
            else:
                self.ledger.record("lost_on_crash")
        self._ingress.replace(survivors)
        # 4. broker state: non-durable subscriptions die, durables retain.
        self.broker.crash()

    def restart(self) -> None:
        """Bring the server back up and resume service on the backlog."""
        if self.up:
            raise ServerUnavailableError("restart() on a server that is already up")
        self.up = True
        self.broker.recover()
        if self._ingress and not self._serving and not self.paused:
            self._start_service()

    def degrade(self, slowdown: float) -> None:
        """Inflate the transmit cost ``t_tx`` (slow-consumer fault)."""
        if slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {slowdown}")
        self.slowdown = float(slowdown)

    def restore_speed(self) -> None:
        """End a slow-consumer degradation window."""
        self.slowdown = 1.0

    def inject_drop(self, count: int = 1) -> None:
        """Drop the next ``count`` accepted messages (network fault)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._drop_next += count

    def inject_corruption(self, count: int = 1) -> None:
        """Corrupt the next ``count`` accepted messages (dead-lettered)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._corrupt_next += count

    def timeout_waiters(self, count: int = 1) -> int:
        """Fail the oldest ``count`` blocked submits with a client
        timeout (the ``CLIENT_TIMEOUT`` fault: impatient publishers give
        up on push-back all at once).

        Only BLOCK-mode waiters can time out — drop-policy submits
        complete immediately.  Returns how many were actually failed.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        now = self.engine.now
        timed_out = 0
        for grant in list(self._pending):
            if timed_out >= count:
                break
            handle = self._pending.get(grant)
            if handle is None or not handle.pending or handle._withdraw is None:
                continue
            if handle._withdraw():
                self._pending.pop(grant, None)
                self.ledger.record("client_timeouts")
                timed_out += 1
                self._reject(
                    handle,
                    ClientTimeoutError(f"client timed out at t={now:g}"),
                )
        return timed_out

    def pause(self) -> None:
        """Freeze the CPU mid-step (``PROCESS_PAUSE``, a GC-style stall).

        The ingress keeps accepting — arrivals pile up — but no service
        starts or finishes until :meth:`resume`; an interrupted service
        keeps its remaining cost and picks up where it stopped.
        """
        if self.paused:
            raise ServerUnavailableError("pause() on a server that is already paused")
        self.paused = True
        now = self.engine.now
        if self._service_event is not None:
            self._pause_remaining = max(0.0, self._service_event.time - now)
            self._service_event.cancel()
            self._service_event = None

    def resume(self) -> None:
        """End a process pause; the interrupted service resumes."""
        if not self.paused:
            raise ServerUnavailableError("resume() on a server that is not paused")
        self.paused = False
        if self._in_service is not None:
            result = self._in_service
            remaining = self._pause_remaining or 0.0
            self._pause_remaining = None
            self._service_event = self.engine.call_in(
                remaining, lambda: self._finish_service(result)
            )
        elif self.up and not self._serving and self._ingress:
            self._start_service()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._ingress)

    @property
    def system_size(self) -> int:
        """Messages in the system: waiting plus in service (``≤ K``)."""
        return len(self._ingress) + (1 if self._serving else 0)

    def utilization(self, until: Optional[float] = None) -> float:
        """Windowed CPU utilization — the simulated ``sar`` reading."""
        return self.busy.utilization(until if until is not None else self.engine.now)
