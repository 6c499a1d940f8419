"""What every chaos matrix shares: a point, a report and a survivor oracle.

Each harness keeps its own workload, its own fault enumeration and its
own ``for`` loop; what it hands back is the same shape.  A
:class:`ChaosPoint` is one cell of the matrix (its coordinates and what
broke there), a :class:`ChaosReport` is every cell plus the harness's
parameters, and :func:`survivor_violations` is the one check all three
matrices make of the messages left after the fault: each expected
message exactly once, nothing that was acknowledged or never sent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

__all__ = ["ChaosPoint", "ChaosReport", "survivor_violations"]


@dataclass
class ChaosPoint:
    """One cell of a chaos matrix: where the fault landed and what broke.

    ``coords`` names the cell (for example ``{"mode": "sync", "scenario":
    "drop", "step": 4}``).  The remaining fields are the per-point facts a
    test or a summary reads; a harness that does not measure one leaves it
    at its default.
    """

    coords: Dict[str, Any]
    violations: List[str] = field(default_factory=list)
    #: rebalance: handoff attempts the engine made (> 1 after a retry).
    attempts: int = 0
    #: rebalance: whether a send to a partition outside the handoff landed
    #: while the fault fired (``None``: no such partition existed).
    probe_accepted: Optional[bool] = None
    #: failover: acknowledged messages the promoted standby does not hold.
    lost: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def label(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self.coords.items())


@dataclass
class ChaosReport:
    """Every point of one chaos matrix, plus the harness's parameters.

    ``params`` holds the run's parameters and summary figures, as
    ``to_dict`` reports them.  ``checks`` holds whole-run checks that are
    not cells of the matrix (failover's split-brain test): they can fail
    the report but do not count as points.  A report with no points is
    not a pass.
    """

    params: Dict[str, Any]
    points: List[ChaosPoint] = field(default_factory=list)
    checks: List[ChaosPoint] = field(default_factory=list)

    @property
    def failures(self) -> List[ChaosPoint]:
        return [p for p in (*self.points, *self.checks) if not p.ok]

    @property
    def violations(self) -> List[str]:
        return [f"{p.label}: {v}" for p in self.failures for v in p.violations]

    @property
    def ok(self) -> bool:
        return bool(self.points) and not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            **self.params,
            "points": len(self.points),
            "ok": self.ok,
            "violations": self.violations[:50],
        }


def survivor_violations(found: Iterable[int], live: Set[int], gone: Set[int]) -> List[str]:
    """Check the message ids a fault left behind.

    ``found`` is every id the surviving brokers hold, with repeats;
    ``live`` the ids that must survive exactly once; ``gone`` the ids that
    must not survive (acknowledged, or otherwise terminal).  Reports ids
    found twice, live ids not found, gone ids found again and ids that are
    neither live nor gone.
    """
    counts = Counter(found)
    present = set(counts)
    violations: List[str] = []
    duplicate = sorted(mid for mid, count in counts.items() if count > 1)
    if duplicate:
        violations.append(f"duplicate ids: {duplicate}")
    lost = sorted(live - present)
    if lost:
        violations.append(f"lost ids: {lost}")
    resurrected = sorted(gone & present)
    if resurrected:
        violations.append(f"resurrected ids: {resurrected}")
    unexpected = sorted(present - live - gone)
    if unexpected:
        violations.append(f"unexpected ids: {unexpected}")
    return violations
