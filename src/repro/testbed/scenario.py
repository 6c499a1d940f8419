"""Scenario builders replicating the paper's experiment setup (§III-B.2a).

The parameter-study layout: five publishers send messages carrying
correlation ID ``#0`` (or application property ``key = '#0'``) in a
saturated way; ``R`` subscribers filter for attribute ``#0`` (and therefore
match every message) while ``n`` additional subscribers filter for other
attributes (``#1 … #n``, or all for ``#1`` in the *identical filters*
variant) and never match.  Altogether ``n_fltr = n + R`` filters are
installed and every message has replication grade exactly ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..broker import (
    Broker,
    CorrelationIdFilter,
    MatchAllFilter,
    Message,
    MessageFilter,
    PropertyFilter,
)
from ..core.params import FilterType, costs_for
from ..core.replication import ReplicationModel
from ..core.service_time import ServiceTimeModel

__all__ = [
    "FilterScenario",
    "ReplicationScenario",
    "build_filter_scenario",
    "build_replication_scenario",
    "replication_service_model",
    "TOPIC_NAME",
    "MATCH_VALUE",
]

TOPIC_NAME = "measurement"
MATCH_VALUE = "#0"
_PROPERTY_KEY = "attribute"


def _matching_filter(filter_type: FilterType) -> MessageFilter:
    if filter_type is FilterType.CORRELATION_ID:
        return CorrelationIdFilter(MATCH_VALUE)
    return PropertyFilter(f"{_PROPERTY_KEY} = '{MATCH_VALUE}'")


#: Semantically equivalent textual forms of ``key = 'value'``.  All five
#: share one canonical form (``(key = 'value')``), so literal-text filter
#: sharing sees five distinct filters while canonical sharing sees one.
_EQUIVALENT_FORMS = (
    "{key} = '{value}'",
    "'{value}' = {key}",
    "NOT ({key} <> '{value}')",
    "{key} IN ('{value}')",
    "{key} LIKE '{value}'",
)


def _non_matching_filter(
    filter_type: FilterType, index: int, identical: bool, variants: bool = False
) -> MessageFilter:
    value = "#1" if identical else f"#{index + 1}"
    if filter_type is FilterType.CORRELATION_ID:
        return CorrelationIdFilter(value)
    if identical and variants:
        template = _EQUIVALENT_FORMS[index % len(_EQUIVALENT_FORMS)]
        return PropertyFilter(template.format(key=_PROPERTY_KEY, value=value))
    return PropertyFilter(f"{_PROPERTY_KEY} = '{value}'")


def make_test_message(filter_type: FilterType, body_size: int = 0) -> Message:
    """A message that matches exactly the ``#0`` filters.

    The paper's default body size is 0 bytes — all information is in the
    headers.
    """
    if filter_type is FilterType.CORRELATION_ID:
        return Message(topic=TOPIC_NAME, correlation_id=MATCH_VALUE, body=b"\0" * body_size)
    return Message(
        topic=TOPIC_NAME,
        properties={_PROPERTY_KEY: MATCH_VALUE},
        body=b"\0" * body_size,
    )


@dataclass
class FilterScenario:
    """A configured broker plus the knobs of one measurement run."""

    broker: Broker
    filter_type: FilterType
    replication_grade: int
    n_additional: int
    identical_non_matching: bool
    equivalent_variants: bool = False

    @property
    def n_fltr(self) -> int:
        """Total installed filters, ``n + R``."""
        return self.n_additional + self.replication_grade

    def make_message(self, body_size: int = 0) -> Message:
        return make_test_message(self.filter_type, body_size=body_size)


@dataclass
class ReplicationScenario:
    """A broker wired so each message hits an exact replication grade.

    For every grade ``k > 0`` in the support of a
    :class:`~repro.core.replication.ReplicationModel`, ``k`` subscribers
    listen on the same attribute value ``#g{k}``.  A message carrying
    ``#g{k}`` therefore matches exactly ``k`` filters, while *all*
    installed filters are still evaluated (the linear scan the paper
    measures) — so the service time is exactly ``D + k·t_tx`` with
    ``D = t_rcv + n_fltr·t_fltr``, and sampling the grade per message
    realizes the replication distribution without any approximation.
    Built for the overload experiments (:mod:`repro.overload.experiment`),
    which need random ``R`` with an analytically exact service support.
    """

    broker: Broker
    filter_type: FilterType
    #: Distinct grades ``k > 0`` with installed subscriber groups.
    grades: List[int]

    @property
    def n_fltr(self) -> int:
        """Total installed filters, ``Σ k`` over the support grades."""
        return sum(self.grades)

    def make_message(self, grade: int, body_size: int = 0) -> Message:
        """A message matching exactly ``grade`` filters (0 matches none)."""
        if grade != 0 and grade not in self.grades:
            raise ValueError(f"grade {grade} is not in the scenario support {self.grades}")
        value = f"#g{grade}" if grade > 0 else "#none"
        if self.filter_type is FilterType.CORRELATION_ID:
            return Message(topic=TOPIC_NAME, correlation_id=value, body=b"\0" * body_size)
        return Message(
            topic=TOPIC_NAME, properties={_PROPERTY_KEY: value}, body=b"\0" * body_size
        )


def _support_grades(replication: ReplicationModel) -> List[int]:
    """Grades ``k > 0`` the model can draw: one subscriber group each."""
    return [grade for grade, p in replication.distribution() if grade > 0 and p > 0]


def replication_service_model(
    replication: ReplicationModel, filter_type: FilterType, cpu_scale: float
) -> ServiceTimeModel:
    """Service time of the broker :func:`build_replication_scenario` builds.

    It installs ``Σ k`` filters over the support grades, which is the
    ``n_fltr`` every message pays; ``cpu_scale`` slows the Table I costs
    the way the experiments' ``CpuCostModel`` does.
    """
    return ServiceTimeModel(
        costs_for(filter_type).scaled(cpu_scale),
        n_fltr=sum(_support_grades(replication)),
        replication=replication,
    )


def build_replication_scenario(
    replication: ReplicationModel,
    filter_type: FilterType = FilterType.CORRELATION_ID,
    drain_inboxes: bool = True,
) -> ReplicationScenario:
    """Assemble a broker realizing a random replication-grade model.

    ``drain_inboxes`` installs an ``on_message`` hook that clears each
    subscriber inbox immediately (the paper's fast-consumer assumption);
    long overload runs would otherwise accumulate every delivered copy.
    """
    support = _support_grades(replication)
    broker = Broker(topics=[TOPIC_NAME], freeze_topics=True)
    for grade in support:
        value = f"#g{grade}"
        if filter_type is FilterType.CORRELATION_ID:
            message_filter: MessageFilter = CorrelationIdFilter(value)
        else:
            message_filter = PropertyFilter(f"{_PROPERTY_KEY} = '{value}'")
        for i in range(grade):
            subscriber = broker.add_subscriber(f"grade{grade}-{i}")
            if drain_inboxes:
                subscriber.on_message = (
                    lambda delivery, inbox=subscriber.inbox: inbox.clear()
                )
            broker.subscribe(subscriber, TOPIC_NAME, message_filter)
    return ReplicationScenario(broker=broker, filter_type=filter_type, grades=support)


def build_filter_scenario(
    filter_type: FilterType,
    replication_grade: int,
    n_additional: int,
    identical_non_matching: bool = False,
    plain_subscribers: int = 0,
    equivalent_variants: bool = False,
    durable: bool = False,
) -> FilterScenario:
    """Assemble the broker for one parameter-study cell.

    Parameters
    ----------
    filter_type:
        Correlation-ID or application-property filtering.
    replication_grade:
        ``R`` — subscribers whose filter matches every test message.
    n_additional:
        ``n`` — subscribers whose filter never matches.
    identical_non_matching:
        When True, all ``n`` non-matching subscribers filter for the same
        value ``#1`` (the paper's identical-filters experiment); otherwise
        they filter for distinct values ``#1 … #n``.
    plain_subscribers:
        Extra subscribers *without* filters (replication-only experiments);
        they receive every message but cost no filter work.
    equivalent_variants:
        With ``identical_non_matching`` and property filtering, rotate the
        non-matching selectors through semantically equivalent textual
        forms of ``attribute = '#1'``: identical-literal sharing sees them
        as distinct, canonical sharing merges them back into one.
    durable:
        Install every subscription as *durable* so it survives server
        crashes and retains messages while its subscriber is offline —
        the configuration of the fault-injection experiments
        (:mod:`repro.faults`).
    """
    if replication_grade < 0 or n_additional < 0 or plain_subscribers < 0:
        raise ValueError("subscriber counts must be non-negative")
    broker = Broker(topics=[TOPIC_NAME], freeze_topics=True)
    subscriptions: List = []
    for i in range(replication_grade):
        subscriber = broker.add_subscriber(f"match-{i}")
        subscriptions.append(
            broker.subscribe(
                subscriber, TOPIC_NAME, _matching_filter(filter_type), durable=durable
            )
        )
    for i in range(n_additional):
        subscriber = broker.add_subscriber(f"other-{i}")
        subscriptions.append(
            broker.subscribe(
                subscriber,
                TOPIC_NAME,
                _non_matching_filter(
                    filter_type, i, identical_non_matching, variants=equivalent_variants
                ),
                durable=durable,
            )
        )
    for i in range(plain_subscribers):
        subscriber = broker.add_subscriber(f"plain-{i}")
        subscriptions.append(
            broker.subscribe(subscriber, TOPIC_NAME, MatchAllFilter(), durable=durable)
        )
    return FilterScenario(
        broker=broker,
        filter_type=filter_type,
        replication_grade=replication_grade,
        n_additional=n_additional,
        identical_non_matching=identical_non_matching,
        equivalent_variants=equivalent_variants,
    )
