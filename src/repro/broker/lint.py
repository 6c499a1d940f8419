"""Deployment-wide selector audit backing the ``repro lint`` command.

The per-selector analyzer (:mod:`repro.broker.selector.analysis`) answers
"is this selector well-typed / dead / trivial?".  This module lifts that
to a *deployment*: for every topic of a broker it counts dead, trivial,
duplicate and ill-typed selectors among the installed subscriptions, and
renders the verdict in the paper's terms — a dead filter pays ``t_fltr``
per message for zero deliveries (Eq. 1), a trivial filter has
``p_match = 1`` and therefore always violates the filter-usefulness
criterion (Eq. 3), and duplicates are exactly the evaluation-sharing
opportunity the canonical filter index exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.capacity import filters_increase_capacity, max_match_probability
from ..core.params import APP_PROPERTY_COSTS, CostParameters
from .errors import InvalidSelectorError
from .filters import PropertyFilter
from .selector.analysis import SelectorAnalysis, analyze

__all__ = [
    "SelectorFinding",
    "TopicAudit",
    "DeploymentAudit",
    "audit_selectors",
    "audit_broker",
    "render_audit",
]


@dataclass(frozen=True)
class SelectorFinding:
    """One audited selector, with where it is installed (when known)."""

    selector: str
    analysis: Optional[SelectorAnalysis]  # None when the selector fails to parse
    parse_error: Optional[str] = None
    subscriber_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.parse_error is None and self.analysis is not None and self.analysis.ok


@dataclass(frozen=True)
class TopicAudit:
    """Selector health of one topic's subscriptions."""

    topic: str
    subscriptions: int
    #: Non-trivial installed filters — the ``n_fltr`` of Eq. 1.
    filters: int
    #: Selectors that can never match (dead weight).
    dead: int
    #: Tautological selectors (``p_match = 1``, always violating Eq. 3).
    trivial: int
    #: Subscriptions beyond the first sharing a canonical form — each one
    #: is a filter evaluation the canonical index would not repeat.
    duplicates: int
    #: Ill-typed selectors (a strict broker would have rejected them).
    ill_typed: int
    findings: Tuple[SelectorFinding, ...]


@dataclass(frozen=True)
class DeploymentAudit:
    """The whole broker's selector health plus the Eq. 3 framing."""

    topics: Tuple[TopicAudit, ...]
    costs: CostParameters

    @property
    def total_dead(self) -> int:
        return sum(t.dead for t in self.topics)

    @property
    def total_trivial(self) -> int:
        return sum(t.trivial for t in self.topics)

    @property
    def total_duplicates(self) -> int:
        return sum(t.duplicates for t in self.topics)

    @property
    def total_ill_typed(self) -> int:
        return sum(t.ill_typed for t in self.topics)

    @property
    def clean(self) -> bool:
        return not (
            self.total_dead or self.total_trivial
            or self.total_duplicates or self.total_ill_typed
        )

    @property
    def match_probability_threshold(self) -> float:
        """Largest ``p_match`` at which one of these filters helps (Eq. 3)."""
        return max_match_probability(self.costs, 1)


def audit_selectors(
    selectors: Iterable[str],
    subscriber_ids: Optional[Sequence[str]] = None,
) -> List[SelectorFinding]:
    """Analyze a batch of selector strings (parse errors become findings)."""
    findings: List[SelectorFinding] = []
    ids = list(subscriber_ids) if subscriber_ids is not None else None
    for position, text in enumerate(selectors):
        subscriber = ids[position] if ids is not None else None
        try:
            analysis = analyze(text)
        except InvalidSelectorError as exc:
            findings.append(
                SelectorFinding(text, None, parse_error=str(exc), subscriber_id=subscriber)
            )
        else:
            findings.append(SelectorFinding(text, analysis, subscriber_id=subscriber))
    return findings


def _audit_topic(topic: str, subscriptions: Sequence) -> TopicAudit:
    findings: List[SelectorFinding] = []
    dead = trivial = ill_typed = 0
    canonical_seen: Dict[str, int] = {}
    filters = 0
    for subscription in subscriptions:
        filter_ = subscription.filter
        if filter_.is_trivial:
            continue
        filters += 1
        if not isinstance(filter_, PropertyFilter):
            continue  # correlation-ID filters carry no selector text
        analysis = filter_.selector.analysis
        findings.append(
            SelectorFinding(
                filter_.selector.text,
                analysis,
                subscriber_id=subscription.subscriber.subscriber_id,
            )
        )
        if analysis.unsatisfiable:
            dead += 1
        if analysis.tautological:
            trivial += 1
        if analysis.errors:
            ill_typed += 1
        canonical_seen[analysis.canonical_text] = (
            canonical_seen.get(analysis.canonical_text, 0) + 1
        )
    duplicates = sum(count - 1 for count in canonical_seen.values())
    return TopicAudit(
        topic=topic,
        subscriptions=len(subscriptions),
        filters=filters,
        dead=dead,
        trivial=trivial,
        duplicates=duplicates,
        ill_typed=ill_typed,
        findings=tuple(findings),
    )


def audit_broker(broker, costs: CostParameters = APP_PROPERTY_COSTS) -> DeploymentAudit:
    """Audit every topic of a :class:`~repro.broker.server.Broker`."""
    audits = [
        _audit_topic(topic.name, broker.subscriptions(topic.name))
        for topic in broker.topics
    ]
    return DeploymentAudit(topics=tuple(audits), costs=costs)


def render_audit(audit: DeploymentAudit, verbose: bool = False) -> str:
    """Human-readable lint report for a deployment audit."""
    lines: List[str] = []
    for topic in audit.topics:
        lines.append(
            f"topic {topic.topic!r}: {topic.subscriptions} subscriptions,"
            f" {topic.filters} filters — {topic.dead} dead, {topic.trivial} trivial,"
            f" {topic.duplicates} duplicate, {topic.ill_typed} ill-typed"
        )
        for finding in topic.findings:
            if finding.ok and not verbose:
                continue
            owner = f" [{finding.subscriber_id}]" if finding.subscriber_id else ""
            lines.append(f"  selector{owner}: {finding.selector}")
            if finding.parse_error is not None:
                lines.append(f"    parse error: {finding.parse_error}")
            elif finding.analysis is not None:
                for diagnostic in finding.analysis.diagnostics:
                    lines.append(f"    {diagnostic.describe()}")
    threshold = audit.match_probability_threshold
    lines.append(
        f"Eq. 3: one {audit.costs.filter_type} filter increases capacity only"
        f" while p_match < {threshold:.1%}"
    )
    if audit.total_trivial:
        helps = filters_increase_capacity(audit.costs, 1, 1.0)
        lines.append(
            f"  {audit.total_trivial} trivial selector(s) have p_match = 1:"
            f" filters {'help' if helps else 'strictly reduce capacity'} —"
            " subscribe without a selector instead"
        )
    if audit.total_dead:
        lines.append(
            f"  {audit.total_dead} dead selector(s) pay t_fltr ="
            f" {audit.costs.t_fltr:.2e} s per message and never deliver"
        )
    if audit.total_duplicates:
        lines.append(
            f"  {audit.total_duplicates} duplicate selector(s): a canonicalizing"
            " filter index evaluates each shared form once per message"
        )
    if audit.clean:
        lines.append("no selector problems found")
    return "\n".join(lines)
