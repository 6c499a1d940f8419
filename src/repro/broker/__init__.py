"""JMS-style publish/subscribe broker — the paper's system under test.

This package is a from-scratch stand-in for the FioranoMQ 7.5 server: a
message model with headers/properties/body (Fig. 2), topics, a SQL-92
message-selector language, correlation-ID and application-property
filters, durable and non-durable subscriptions, in-order delivery, and
publisher push-back flow control.  Filter evaluation is a strict linear
scan per message, matching the measured (un-optimized) FioranoMQ
behaviour.  The deployment audit behind ``repro lint``
(:mod:`repro.broker.lint`) prices selectors with the :mod:`repro.core`
model, so the package root does not import it.
"""

from .dispatch import DispatchPlan, LinearScan, plan_dispatch
from .dispatch_cache import DispatchMemo, message_fingerprint
from .filter_index import FilterIndex
from .hierarchy import TopicPattern, TopicTrie, split_topic
from .queues import (
    DropPolicy,
    PointToPointQueue,
    QueueConsumer,
    QueueCrashReport,
    QueueDelivery,
    QueueManager,
)
from .errors import (
    ClientTimeoutError,
    FlowControlError,
    InvalidDestinationError,
    InvalidSelectorError,
    JMSError,
    MessageFormatError,
    ServerOverloadedError,
    ServerUnavailableError,
    SubscriptionError,
)
from .filters import CorrelationIdFilter, MatchAllFilter, MessageFilter, PropertyFilter
from .flow_control import FlowController
from .message import DeliveredMessage, DeliveryMode, Message
from .selector import Selector, SelectorAnalysis, analyze
from .server import (
    SELECTOR_POLICIES,
    BatchPublishResult,
    Broker,
    BrokerCrashReport,
    PublishResult,
)
from .stats import BrokerStats
from .subscriptions import Subscriber, Subscription
from .topics import Topic, TopicRegistry

__all__ = [
    "BatchPublishResult",
    "Broker",
    "BrokerCrashReport",
    "BrokerStats",
    "ClientTimeoutError",
    "CorrelationIdFilter",
    "DeliveredMessage",
    "DeliveryMode",
    "DispatchMemo",
    "DispatchPlan",
    "DropPolicy",
    "FilterIndex",
    "FlowControlError",
    "FlowController",
    "PointToPointQueue",
    "QueueConsumer",
    "QueueCrashReport",
    "QueueDelivery",
    "QueueManager",
    "ServerOverloadedError",
    "ServerUnavailableError",
    "TopicPattern",
    "TopicTrie",
    "split_topic",
    "InvalidDestinationError",
    "InvalidSelectorError",
    "JMSError",
    "LinearScan",
    "MatchAllFilter",
    "Message",
    "MessageFilter",
    "MessageFormatError",
    "PropertyFilter",
    "PublishResult",
    "SELECTOR_POLICIES",
    "Selector",
    "SelectorAnalysis",
    "Subscriber",
    "Subscription",
    "SubscriptionError",
    "Topic",
    "TopicRegistry",
    "analyze",
    "message_fingerprint",
    "plan_dispatch",
]
