"""Deterministic fault schedules.

A :class:`FaultSchedule` is an immutable, time-ordered list of
:class:`FaultEvent` instances — the full failure script of one run.
Schedules are either written explicitly (regression tests, the canonical
benchmark outage) or drawn from seeded RNG streams
(:meth:`FaultSchedule.random`), so a ``(seed, schedule)`` pair always
reproduces bit-identical runs.

The paper's M/G/1 analysis assumes an always-up server; an outage window
turns the arrival process into a batch ("the messages that accumulated
while the server was down arrive together at restart"), the M^X/G/1
territory of the segmentation literature.  :mod:`repro.faults.availability`
quantifies that effect; this module only *describes* the failures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..rng import RandomStreams

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule", "DISK_KINDS", "LINK_KINDS"]


class FaultKind(enum.Enum):
    """The failure modes the injector knows how to apply."""

    #: Server hard-crash at ``time``; restart after ``duration``.
    SERVER_CRASH = "server_crash"
    #: One subscriber drops its connection for ``duration`` seconds.
    SUBSCRIBER_DISCONNECT = "subscriber_disconnect"
    #: Slow-consumer degradation: transmit cost inflated by ``magnitude``
    #: for ``duration`` seconds.
    SLOW_CONSUMER = "slow_consumer"
    #: The next ``magnitude`` accepted messages vanish (network fault).
    MESSAGE_DROP = "message_drop"
    #: The next ``magnitude`` accepted messages arrive corrupted and are
    #: dead-lettered by the server.
    MESSAGE_CORRUPT = "message_corrupt"
    #: The journal disk tears the unsynced tail of its newest file at
    #: ``time`` (a partial write reaches the platter mid-operation).
    #: Requires a :class:`~repro.durability.disk.SimulatedDisk` armed on
    #: the injector.
    TORN_WRITE = "torn_write"
    #: The next ``magnitude`` journal-disk appends fail after persisting
    #: only a random prefix (I/O error, half-written record).  Requires a
    #: disk armed on the injector.
    DISK_FAULT = "disk_fault"
    #: The next ``magnitude`` replication ship frames vanish on the wire.
    #: Requires a :class:`~repro.replication.link.SimulatedLink` armed on
    #: the injector.
    LINK_DROP = "link_drop"
    #: Every ship frame sent during the window pays ``magnitude`` extra
    #: seconds of latency (congestion).  Requires a link armed on the
    #: injector.
    LINK_DELAY = "link_delay"
    #: The replicated pair's primary stops renewing its lease for
    #: ``duration`` seconds (GC pause / partition) and is revived after —
    #: possibly into a fenced world.  Requires a
    #: :class:`~repro.replication.pair.ReplicatedPair` armed on the
    #: injector.
    LEASE_PAUSE = "lease_pause"
    #: ``magnitude`` publishers blocked on push-back give up at ``time``
    #: (their client-side send timeout fires): each blocked submit fails
    #: with :class:`~repro.broker.errors.ClientTimeoutError`, feeding the
    #: retry loops the fixed-point model of :mod:`repro.core.resilience`
    #: prices.  A point fault; no-op when nobody is blocked.
    CLIENT_TIMEOUT = "client_timeout"
    #: The server's process freezes for ``duration`` seconds (GC-style
    #: stall): the CPU stops mid-service and resumes with the remaining
    #: cost intact, while arrivals keep piling into the ingress queue.
    PROCESS_PAUSE = "process_pause"


#: Kinds that describe a window (need ``duration > 0``).
_WINDOW_KINDS = frozenset(
    {
        FaultKind.SERVER_CRASH,
        FaultKind.SUBSCRIBER_DISCONNECT,
        FaultKind.SLOW_CONSUMER,
        FaultKind.LINK_DELAY,
        FaultKind.LEASE_PAUSE,
        FaultKind.PROCESS_PAUSE,
    }
)

#: Kinds that need a simulated journal disk armed on the injector.
DISK_KINDS = frozenset({FaultKind.TORN_WRITE, FaultKind.DISK_FAULT})

#: Kinds that need a simulated replication link armed on the injector.
LINK_KINDS = frozenset({FaultKind.LINK_DROP, FaultKind.LINK_DELAY})

#: Kinds whose windows must be disjoint: a server cannot crash while it
#: is already down, and a process (or lease-holding primary) cannot be
#: paused while already paused.
_EXCLUSIVE_WINDOW_KINDS = (
    FaultKind.SERVER_CRASH,
    FaultKind.LEASE_PAUSE,
    FaultKind.PROCESS_PAUSE,
)

#: Kinds whose ``magnitude`` is a message/operation count.
_COUNT_KINDS = frozenset(
    {
        FaultKind.MESSAGE_DROP,
        FaultKind.MESSAGE_CORRUPT,
        FaultKind.DISK_FAULT,
        FaultKind.LINK_DROP,
        FaultKind.CLIENT_TIMEOUT,
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    ``duration`` is the window length for crash/disconnect/slow-consumer
    faults; ``magnitude`` is the slowdown factor for ``SLOW_CONSUMER``
    and the message count for drop/corrupt faults.  ``target`` names the
    affected subscriber for ``SUBSCRIBER_DISCONNECT``.
    """

    time: float
    kind: FaultKind
    duration: float = 0.0
    magnitude: float = 1.0
    target: Optional[str] = None

    def __post_init__(self) -> None:
        # isfinite also rejects NaN, which would slip through `< 0`
        # (every comparison with NaN is False) and silently mis-schedule.
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"fault time must be finite and >= 0, got {self.time}")
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ValueError(
                f"fault duration must be finite and >= 0, got {self.duration}"
            )
        if not math.isfinite(self.magnitude):
            raise ValueError(f"fault magnitude must be finite, got {self.magnitude}")
        if self.kind in _WINDOW_KINDS and self.duration <= 0:
            raise ValueError(f"{self.kind.value} needs a positive duration")
        if self.kind is FaultKind.SUBSCRIBER_DISCONNECT and not self.target:
            raise ValueError("subscriber_disconnect needs a target subscriber id")
        if self.kind is FaultKind.SLOW_CONSUMER and self.magnitude < 1.0:
            raise ValueError(f"slow-consumer magnitude must be >= 1, got {self.magnitude}")
        if self.kind is FaultKind.LINK_DELAY and self.magnitude <= 0:
            raise ValueError(
                f"link-delay magnitude (extra seconds) must be > 0, got {self.magnitude}"
            )
        if self.kind in _COUNT_KINDS:
            if self.magnitude < 1 or self.magnitude != int(self.magnitude):
                raise ValueError(
                    f"{self.kind.value} magnitude must be a positive integer count"
                )

    @property
    def end(self) -> float:
        """End of the fault window (== ``time`` for point faults)."""
        return self.time + self.duration

    def to_dict(self) -> dict:
        """JSON-ready form; :meth:`from_dict` round-trips it exactly."""
        out: dict = {"time": self.time, "kind": self.kind.value}
        if self.duration:
            out["duration"] = self.duration
        if self.magnitude != 1.0:
            out["magnitude"] = self.magnitude
        if self.target is not None:
            out["target"] = self.target
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output (full validation)."""
        unknown = set(data) - {"time", "kind", "duration", "magnitude", "target"}
        if unknown:
            raise ValueError(f"unknown fault event fields: {sorted(unknown)}")
        if "time" not in data or "kind" not in data:
            raise ValueError(f"fault event needs 'time' and 'kind', got {sorted(data)}")
        try:
            kind = FaultKind(data["kind"])
        except ValueError:
            known = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {data['kind']!r}; known: {known}"
            ) from None
        return cls(
            time=float(data["time"]),
            kind=kind,
            duration=float(data.get("duration", 0.0)),
            magnitude=float(data.get("magnitude", 1.0)),
            target=data.get("target"),
        )


class FaultSchedule:
    """An immutable, time-ordered failure script.

    Crash windows must not overlap (a server cannot crash while it is
    already down); other fault kinds may interleave freely.  All
    structural validation happens *here*, at construction — a schedule
    that builds is a schedule that arms — with span-style messages
    naming the offending event by index, time and kind.

    ``known_targets``, when given, closes the world of subscriber ids: a
    ``SUBSCRIBER_DISCONNECT`` aimed at any other target is rejected now
    instead of exploding (or silently no-opting) at ``arm()`` time.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent],
        known_targets: Optional[Sequence[str]] = None,
    ):
        ordered = sorted(events, key=lambda e: (e.time, e.kind.value, e.target or ""))
        for exclusive in _EXCLUSIVE_WINDOW_KINDS:
            label = "crash" if exclusive is FaultKind.SERVER_CRASH else exclusive.value
            windows = [
                (index, event)
                for index, event in enumerate(ordered)
                if event.kind is exclusive
            ]
            for (i, earlier), (j, later) in zip(windows, windows[1:]):
                if later.time < earlier.end:
                    raise ValueError(
                        f"overlapping {label} windows: event #{i} covers "
                        f"[{earlier.time:g}, {earlier.end:g}) and event #{j} "
                        f"starts inside it at t={later.time:g} "
                        f"({label} windows must be disjoint)"
                    )
        if known_targets is not None:
            known = set(known_targets)
            for index, event in enumerate(ordered):
                if event.kind is FaultKind.SUBSCRIBER_DISCONNECT and event.target not in known:
                    catalog = ", ".join(sorted(known)) if known else "<none>"
                    raise ValueError(
                        f"event #{index} (t={event.time:g} {event.kind.value}): "
                        f"unknown target {event.target!r}; known: {catalog}"
                    )
        self._events: Tuple[FaultEvent, ...] = tuple(ordered)

    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return self._events

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def of_kind(self, kind: FaultKind) -> List[FaultEvent]:
        return [e for e in self._events if e.kind is kind]

    @property
    def outages(self) -> List[Tuple[float, float]]:
        """Crash windows as ``(start, duration)`` pairs."""
        return [(e.time, e.duration) for e in self.of_kind(FaultKind.SERVER_CRASH)]

    def downtime(self, horizon: float) -> float:
        """Total server downtime inside ``[0, horizon]``."""
        total = 0.0
        for start, duration in self.outages:
            if start >= horizon:
                continue
            total += min(start + duration, horizon) - start
        return total

    def availability(self, horizon: float) -> float:
        """Fraction of the horizon the server is up."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return 1.0 - self.downtime(horizon) / horizon

    def describe(self) -> str:
        lines = [f"{len(self._events)} fault event(s):"]
        for event in self._events:
            detail = f"  t={event.time:g} {event.kind.value}"
            if event.duration:
                detail += f" for {event.duration:g}s"
            if event.target:
                detail += f" target={event.target}"
            if event.magnitude != 1.0:
                detail += f" x{event.magnitude:g}"
            lines.append(detail)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self._events)} events)"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """JSON-ready event list; :meth:`from_dicts` round-trips it."""
        return [event.to_dict() for event in self._events]

    @classmethod
    def from_dicts(
        cls,
        dicts: Iterable[dict],
        known_targets: Optional[Sequence[str]] = None,
    ) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dicts` output.

        Every event re-runs the full :class:`FaultEvent` validation and
        the schedule re-runs the overlap/target checks — a schedule
        loaded from disk gets exactly the scrutiny a hand-written one
        does.
        """
        return cls(
            (FaultEvent.from_dict(d) for d in dicts), known_targets=known_targets
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultSchedule":
        """The fault-free baseline."""
        return cls(())

    @classmethod
    def single_outage(cls, at: float, duration: float) -> "FaultSchedule":
        """One server crash at ``at``, restart ``duration`` later."""
        return cls([FaultEvent(time=at, kind=FaultKind.SERVER_CRASH, duration=duration)])

    @classmethod
    def periodic_outages(
        cls, first: float, period: float, duration: float, count: int
    ) -> "FaultSchedule":
        """``count`` equally spaced outages of equal length."""
        if period <= duration:
            raise ValueError(
                f"period {period} must exceed outage duration {duration}"
            )
        return cls(
            FaultEvent(time=first + i * period, kind=FaultKind.SERVER_CRASH, duration=duration)
            for i in range(count)
        )

    @classmethod
    def random(
        cls,
        streams: RandomStreams,
        horizon: float,
        crash_rate: float = 0.0,
        mean_outage: float = 10.0,
        subscribers: Sequence[str] = (),
        disconnect_rate: float = 0.0,
        mean_disconnect: float = 5.0,
        slow_rate: float = 0.0,
        mean_slow: float = 5.0,
        slowdown: float = 4.0,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        torn_rate: float = 0.0,
        disk_fail_rate: float = 0.0,
        link_drop_rate: float = 0.0,
        link_delay_rate: float = 0.0,
        mean_link_delay: float = 1.0,
        link_delay_extra: float = 0.01,
        lease_pause_rate: float = 0.0,
        mean_lease_pause: float = 2.0,
        client_timeout_rate: float = 0.0,
        client_timeout_burst: int = 1,
        process_pause_rate: float = 0.0,
        mean_process_pause: float = 1.0,
    ) -> "FaultSchedule":
        """Draw a schedule from seeded RNG streams.

        Each fault kind draws from its *own* named stream of ``streams``
        (the simulation's variance-reduction discipline), so enabling one
        kind never perturbs another and identical seeds give identical
        schedules.  Rates are events per virtual second; window lengths
        are exponential with the given means.  Crash windows are generated
        sequentially (gap then outage) and therefore never overlap.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        events: List[FaultEvent] = []
        if crash_rate > 0:
            rng = streams.stream("faults-crash")
            t = float(rng.exponential(1.0 / crash_rate))
            while t < horizon:
                duration = max(float(rng.exponential(mean_outage)), 1e-9)
                events.append(
                    FaultEvent(time=t, kind=FaultKind.SERVER_CRASH, duration=duration)
                )
                t += duration + float(rng.exponential(1.0 / crash_rate))
        if disconnect_rate > 0 and subscribers:
            rng = streams.stream("faults-disconnect")
            t = float(rng.exponential(1.0 / disconnect_rate))
            while t < horizon:
                target = str(rng.choice(list(subscribers)))
                duration = max(float(rng.exponential(mean_disconnect)), 1e-9)
                events.append(
                    FaultEvent(
                        time=t,
                        kind=FaultKind.SUBSCRIBER_DISCONNECT,
                        duration=duration,
                        target=target,
                    )
                )
                t += float(rng.exponential(1.0 / disconnect_rate))
        if slow_rate > 0:
            rng = streams.stream("faults-slow")
            t = float(rng.exponential(1.0 / slow_rate))
            while t < horizon:
                duration = max(float(rng.exponential(mean_slow)), 1e-9)
                events.append(
                    FaultEvent(
                        time=t,
                        kind=FaultKind.SLOW_CONSUMER,
                        duration=duration,
                        magnitude=slowdown,
                    )
                )
                t += duration + float(rng.exponential(1.0 / slow_rate))
        for kind, rate, stream_name in (
            (FaultKind.MESSAGE_DROP, drop_rate, "faults-drop"),
            (FaultKind.MESSAGE_CORRUPT, corrupt_rate, "faults-corrupt"),
            (FaultKind.TORN_WRITE, torn_rate, "faults-torn"),
            (FaultKind.DISK_FAULT, disk_fail_rate, "faults-diskfail"),
            (FaultKind.LINK_DROP, link_drop_rate, "faults-linkdrop"),
            (FaultKind.CLIENT_TIMEOUT, client_timeout_rate, "faults-clienttimeout"),
        ):
            if rate > 0:
                magnitude = (
                    float(client_timeout_burst)
                    if kind is FaultKind.CLIENT_TIMEOUT
                    else 1.0
                )
                rng = streams.stream(stream_name)
                t = float(rng.exponential(1.0 / rate))
                while t < horizon:
                    events.append(FaultEvent(time=t, kind=kind, magnitude=magnitude))
                    t += float(rng.exponential(1.0 / rate))
        if link_delay_rate > 0:
            rng = streams.stream("faults-linkdelay")
            t = float(rng.exponential(1.0 / link_delay_rate))
            while t < horizon:
                duration = max(float(rng.exponential(mean_link_delay)), 1e-9)
                events.append(
                    FaultEvent(
                        time=t,
                        kind=FaultKind.LINK_DELAY,
                        duration=duration,
                        magnitude=link_delay_extra,
                    )
                )
                t += float(rng.exponential(1.0 / link_delay_rate))
        if lease_pause_rate > 0:
            # Sequential gap-then-window, like crashes: pauses never overlap.
            rng = streams.stream("faults-leasepause")
            t = float(rng.exponential(1.0 / lease_pause_rate))
            while t < horizon:
                duration = max(float(rng.exponential(mean_lease_pause)), 1e-9)
                events.append(
                    FaultEvent(time=t, kind=FaultKind.LEASE_PAUSE, duration=duration)
                )
                t += duration + float(rng.exponential(1.0 / lease_pause_rate))
        if process_pause_rate > 0:
            # Sequential gap-then-window: a process cannot pause while
            # already paused.
            rng = streams.stream("faults-processpause")
            t = float(rng.exponential(1.0 / process_pause_rate))
            while t < horizon:
                duration = max(float(rng.exponential(mean_process_pause)), 1e-9)
                events.append(
                    FaultEvent(time=t, kind=FaultKind.PROCESS_PAUSE, duration=duration)
                )
                t += duration + float(rng.exponential(1.0 / process_pause_rate))
        return cls(events)
