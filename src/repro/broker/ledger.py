"""The conservation ledger: every accepted message meets exactly one fate.

One **fate table** declares every counter of a population once — its
role in the invariant, the broker-wide
:class:`~repro.broker.stats.BrokerStats` total it mirrors into (if any)
and why it exists — and the ledger class built from it
(:func:`ledger_class`) is the only place a counter changes
(:meth:`LedgerBase.record`).  The equation

    accepted legs == terminal fates + the two in-system gauges

is stated once (:meth:`LedgerBase.sides`) and holds on any ledger
*closed* with its gauges.  Two populations, one machinery: the queue's
(:data:`FATE_TABLE`, gauges ``depth`` / ``in_flight`` — a queue closes
its own with :meth:`~repro.broker.queues.PointToPointQueue.closed_ledger`,
a mesh sums its queues', ``a + b``) and the simulated server's ingress
(:data:`repro.testbed.simserver.INGRESS_FATES`, gauges ``backlog`` /
``in_service``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, ClassVar, NamedTuple, Optional, Tuple, Type, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .stats import BrokerStats

__all__ = ["Role", "Fate", "FATE_TABLE", "ACCEPTED", "TERMINAL", "INFORMATIONAL", "by_role",
           "LedgerBase", "ledger_class", "Ledger"]


class Role(enum.Enum):
    """What a counter means to the conservation equation."""

    ACCEPTED = "accepted leg"  # left-hand side: joined the population
    TERMINAL = "terminal fate"  # right-hand side: left it, exactly once
    INFORMATIONAL = "informational"  # no leg: re-counts, hand-offs, rejections


class Fate(NamedTuple):
    """One row of a fate table."""

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


def by_role(table: Tuple[Fate, ...]) -> Tuple[Tuple[str, ...], ...]:
    """``(accepted, terminal, informational)`` counter names, in table order."""
    return tuple(tuple(fate.name for fate in table if fate.role is role) for role in Role)


ACCEPTED, TERMINAL, INFORMATIONAL = by_role(FATE_TABLE)

L = TypeVar("L", bound="LedgerBase")


class LedgerBase:
    """What every table-built ledger does; :func:`ledger_class` adds the
    slots — one per counter of its table plus the two gauges — and
    :meth:`record`, the only way a counter changes: the slots admit no
    new name, and ``RACE001`` flags a write from outside.  ``totals`` is
    the broker-wide ledger the mirrored rows are also booked to.
    """

    __slots__ = ("_totals",)
    ACCEPTED: ClassVar[Tuple[str, ...]]
    TERMINAL: ClassVar[Tuple[str, ...]]
    GAUGES: ClassVar[Tuple[str, str]]
    _NAMES: ClassVar[Tuple[str, ...]]  # every counter, then the gauges
    _totals: Optional["BrokerStats"]

    if TYPE_CHECKING:  # slots and record() are generated: tell the checker their types

        def __getattr__(self, name: str) -> int: ...

        def record(self, name: str, n: int = 1) -> None: ...

    def __init__(self, totals: Optional["BrokerStats"] = None) -> None:
        for name in self._NAMES:
            setattr(self, name, 0)
        self._totals = totals

    def closed(self: L, **gauges: int) -> L:
        """A detached copy carrying the two gauges (by name) — what the
        equation holds on."""
        if gauges.keys() != set(self.GAUGES):
            raise TypeError(f"closed() takes exactly the gauges {self.GAUGES}, got {gauges}")
        out = self + type(self)()
        for name, value in gauges.items():
            setattr(out, name, value)
        return out

    def __add__(self: L, other: L) -> L:
        out = type(self)()
        for name in self._NAMES:
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._NAMES)

    def sides(self) -> Tuple[int, int]:
        """``(accepted, accounted)`` — the conservation equation."""
        accepted = sum(getattr(self, name) for name in self.ACCEPTED)
        accounted = sum(getattr(self, name) for name in self.TERMINAL + self.GAUGES)
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
        legs = " ".join(f"{name}={getattr(self, name)}" for name in self._NAMES)
        return f"{type(self).__name__}({legs})"


def ledger_class(
    table: Tuple[Fate, ...], gauges: Tuple[str, str]
) -> Callable[[Type[L]], Type[L]]:
    """Class decorator: rebuild the (empty) :class:`LedgerBase` subclass
    it decorates as the ledger of ``table`` closed by ``gauges``.  The
    table's effects are bound into ``record`` here, once, so a booking
    pays no lookup on the class.
    """
    accepted, terminal, informational = by_role(table)
    names = accepted + terminal + informational + gauges
    #: ``name -> (subset_of, mirror)``: what else a booking to ``name`` books.
    effects = {fate.name: (fate.subset_of, fate.mirror) for fate in table}

    def record(self: LedgerBase, name: str, n: int = 1) -> None:
        """Book ``n`` messages to counter ``name`` — the only mutation
        point; an undeclared name raises ``KeyError``."""
        subset_of, mirror = effects[name]
        setattr(self, name, getattr(self, name) + n)
        if subset_of is not None:
            setattr(self, subset_of, getattr(self, subset_of) + n)
        if mirror is not None and self._totals is not None:
            self._totals.record(mirror, n)

    def build(declared: Type[L]) -> Type[L]:
        body = {key: getattr(declared, key) for key in ("__doc__", "__module__", "__qualname__")}
        body.update(__slots__=names, _NAMES=names, ACCEPTED=accepted, TERMINAL=terminal,
                    GAUGES=gauges, record=record)
        return type(declared.__name__, (LedgerBase,), body)  # type: ignore[return-value]

    return build


@ledger_class(FATE_TABLE, gauges=("depth", "in_flight"))
class Ledger(LedgerBase):
    """The queue population's ledger: one slot per :data:`FATE_TABLE`
    counter plus the gauges ``depth`` (messages waiting in the backlog)
    and ``in_flight`` (deliveries held by attached consumers, inbox +
    unacked)."""
