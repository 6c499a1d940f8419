"""The conservation ledger: every accepted message meets exactly one fate.

One **fate table** declares every queue counter once — its role in the
invariant, the broker-wide :class:`~repro.broker.stats.BrokerStats`
total it mirrors into (if any) and why it exists — and one
:class:`Ledger` built from it is the only place a counter changes
(:meth:`Ledger.record`).  The equation

    accepted legs == terminal fates + depth + in-flight

is stated once (:meth:`Ledger.sides`) and holds on any ledger *closed*
with its two in-system gauges: a queue closes its own
(:meth:`~repro.broker.queues.PointToPointQueue.closed_ledger`), a mesh
sums its queues' (``a + b``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .stats import BrokerStats

__all__ = ["Role", "Fate", "FATE_TABLE", "ACCEPTED", "TERMINAL", "INFORMATIONAL", "Ledger"]


class Role(enum.Enum):
    """What a counter means to the conservation equation."""

    ACCEPTED = "accepted leg"  # left-hand side: joined this queue's population
    TERMINAL = "terminal fate"  # right-hand side: left it, exactly once
    INFORMATIONAL = "informational"  # no leg: re-counts, hand-offs, rejections


class Fate(NamedTuple):
    """One row of the fate table."""

    name: str
    role: Role
    #: ``BrokerStats`` total the count is also booked to, so shedding
    #: stays attributable broker-wide.
    mirror: Optional[str]
    why: str
    #: Informational total this fate is a subset of (bumped with it,
    #: never mirrored through it).
    subset_of: Optional[str] = None


_A, _T, _I = Role.ACCEPTED, Role.TERMINAL, Role.INFORMATIONAL

FATE_TABLE: Tuple[Fate, ...] = (
    Fate("enqueued", _A, None, "sends accepted into the backlog"),
    Fate("restored", _A, None, "reinstated from the journal by crash recovery; not "
         "re-counted as enqueued (the original send was)"),
    Fate("transferred_in", _A, None, "accepted from another shard by a mesh rebalance — the "
         "receiving-side leg (like restored: the source's send counted enqueued)"),
    Fate("acked", _T, None, "deliveries acknowledged by their consumer"),
    Fate("expired_at_drain", _T, "expired_on_drain", "TTL ran out while the message sat in the "
         "backlog (seen draining, requeueing or restoring it) rather than at send — the "
         "overload-shedding signature", "expired"),
    Fate("expired_in_flight", _T, "expired_in_flight", "deliveries reaped from consumer inboxes: "
         "the deadline passed after the backlog but before the consumer took them (deadline "
         "propagation's fate for work handed off, not yet consumed)", "expired"),
    Fate("dead_lettered", _T, "dead_lettered", "poison messages out of redelivery budget"),
    Fate("dropped_new", _T, "dropped_new", "arrivals tail-dropped by a full bounded backlog"),
    Fate("dropped_oldest", _T, "dropped_oldest", "queued messages evicted to admit a newer one"),
    Fate("deadline_shed", _T, "deadline_shed", "queued messages evicted because their deadline "
         "could no longer be met given the backlog estimate"),
    Fate("lost_on_crash", _T, None, "non-persistent messages that died with the server"),
    Fate("discarded_on_crash", _T, None, "persistent in-memory copies dropped by a *journalled* "
         "crash — not lost (the journal has them; replay restores the committed ones) but no "
         "longer in any memory bucket"),
    Fate("transferred_out", _T, None, "handed off to another shard by a mesh rebalance "
         "(journalled as an ACK so recovery agrees)"),
    Fate("dropped_on_handoff", _T, None, "transferred in, but expired while the handoff was in "
         "flight", "expired"),
    Fate("expired", _I, "expired", "every TTL death; recorded alone for a send-time rejection, "
         "which never joins the population — the one case mirrored, the broker-wide total "
         "being send-time expiry only"),
    Fate("delivered", _I, None, "hand-offs to a consumer inbox, not fates — copies in flight "
         "are the in-flight gauge"),
    Fate("redelivered", _I, None, "re-counts the same message on every retry"),
    Fate("journal_write_failures", _I, None, "failed write-ahead appends; a failed PUBLISH "
         "rejects the send *before* acceptance"),
)

ACCEPTED, TERMINAL, INFORMATIONAL = (
    tuple(fate.name for fate in FATE_TABLE if fate.role is role) for role in Role
)
_COUNTERS = ACCEPTED + TERMINAL + INFORMATIONAL
_GAUGES = ("depth", "in_flight")
#: ``name -> (subset_of, mirror)``: what else a booking to ``name`` books.
_EFFECTS = {fate.name: (fate.subset_of, fate.mirror) for fate in FATE_TABLE}


class Ledger:
    """One slot per :data:`FATE_TABLE` counter plus the two in-system
    gauges: ``depth`` (messages waiting in the backlog) and ``in_flight``
    (deliveries held by attached consumers, inbox + unacked).

    Counters change only through :meth:`record`; the slots admit no new
    name, and ``RACE001`` flags a write from outside.  ``totals`` is the
    broker-wide ledger the mirrored rows are also booked to.
    """

    __slots__ = _COUNTERS + _GAUGES + ("_totals",)
    depth: int
    in_flight: int
    _totals: Optional["BrokerStats"]

    if TYPE_CHECKING:  # the counter slots are generated: tell the checker their type

        def __getattr__(self, name: str) -> int: ...

    def __init__(self, totals: Optional["BrokerStats"] = None) -> None:
        for name in _COUNTERS + _GAUGES:
            setattr(self, name, 0)
        self._totals = totals

    def record(self, name: str, n: int = 1) -> None:
        """Book ``n`` messages to counter ``name`` — the only mutation
        point; an undeclared name raises ``KeyError``."""
        subset_of, mirror = _EFFECTS[name]
        setattr(self, name, getattr(self, name) + n)
        if subset_of is not None:
            setattr(self, subset_of, getattr(self, subset_of) + n)
        if mirror is not None and self._totals is not None:
            self._totals.record(mirror, n)

    def closed(self, depth: int, in_flight: int) -> "Ledger":
        """A detached copy carrying the gauges — what the equation holds on."""
        out = self + Ledger()
        out.depth, out.in_flight = depth, in_flight
        return out

    def __add__(self, other: "Ledger") -> "Ledger":
        out = Ledger()
        for name in _COUNTERS + _GAUGES:
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in _COUNTERS + _GAUGES)

    def sides(self) -> Tuple[int, int]:
        """``(accepted, accounted)`` — the conservation equation."""
        accepted = sum(getattr(self, name) for name in ACCEPTED)
        accounted = sum(getattr(self, name) for name in TERMINAL) + self.depth + self.in_flight
        return accepted, accounted

    @property
    def conserved(self) -> bool:
        accepted, accounted = self.sides()
        return accepted == accounted

    def assert_conserved(self, context: str = "") -> None:
        """Raise ``AssertionError`` with the per-leg dump unless balanced."""
        accepted, accounted = self.sides()
        if accepted != accounted:
            suffix = f" [{context}]" if context else ""
            raise AssertionError(
                f"ledger imbalanced{suffix}: accepted {accepted} != "
                f"fates + in-system {accounted} ({self!r})"
            )

    def __repr__(self) -> str:
        legs = " ".join(f"{name}={getattr(self, name)}" for name in _COUNTERS + _GAUGES)
        return f"Ledger({legs})"
