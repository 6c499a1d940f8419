"""JMS message model (Section II-A, Fig. 2).

A JMS message has three parts:

1. a fixed **header** — destination topic, message id, correlation id
   (a string of up to 128 bytes on which correlation-ID filters operate),
   timestamp, priority, delivery mode, expiration;
2. a user-defined **property section** — typed key/value pairs on which
   application-property filters (message selectors) operate;
3. the **payload** — an opaque body.  The paper's experiments use a body
   size of 0 bytes ("the full information is contained in the headers").

Property values follow the JMS rules: ``bool``, integral, floating point
and ``str`` are allowed; names must be valid Java-style identifiers and
must not collide with reserved selector words.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional

from .errors import MessageFormatError

__all__ = ["DeliveryMode", "Message", "PROPERTY_TYPES", "validate_property_name"]

#: Types admissible as JMS message property values.
PROPERTY_TYPES = (bool, int, float, str)

#: Words the selector grammar reserves; they cannot name properties.
RESERVED_WORDS = frozenset(
    {"and", "or", "not", "between", "in", "like", "escape", "is", "null", "true", "false"}
)

#: Maximum length of a correlation ID, per the paper ("ordinary 128 byte strings").
MAX_CORRELATION_ID_LENGTH = 128

_message_ids = itertools.count(1)


class DeliveryMode(enum.Enum):
    """JMS delivery modes.

    The paper's measurements run in *persistent* (reliable, in-order) but
    *non-durable* mode; NON_PERSISTENT is provided for completeness.
    """

    PERSISTENT = "persistent"
    NON_PERSISTENT = "non_persistent"


@lru_cache(maxsize=4096)
def validate_property_name(name: str) -> str:
    """Check a property name against the JMS identifier rules.

    Memoised: a deployment uses a handful of names on every message, and
    the check is pure.  A raise is not cached, so an invalid name fails
    every time.
    """
    if not name:
        raise MessageFormatError("property name must be non-empty")
    if not (name[0].isalpha() or name[0] in "_$"):
        raise MessageFormatError(
            f"property name {name!r} must start with a letter, '_' or '$'"
        )
    if not all(ch.isalnum() or ch in "_$" for ch in name):
        raise MessageFormatError(f"property name {name!r} contains invalid characters")
    if name.lower() in RESERVED_WORDS:
        raise MessageFormatError(f"property name {name!r} is a reserved selector word")
    if name.startswith("JMS") and not name.startswith("JMSX"):
        raise MessageFormatError(
            f"property name {name!r} uses the reserved JMS header prefix"
        )
    return name


def _validate_property_value(name: str, value: Any) -> Any:
    if not isinstance(value, PROPERTY_TYPES):
        raise MessageFormatError(
            f"property {name!r} has unsupported type {type(value).__name__}; "
            f"allowed: bool, int, float, str"
        )
    return value


@dataclass(slots=True)
class Message:
    """One JMS message.

    Slotted: the testbed allocates one of these per simulated publish, so
    the per-instance ``__dict__`` is measurable overhead at bench scale.

    Example
    -------
    >>> msg = Message(topic="presence", correlation_id="7",
    ...               properties={"device": "phone", "online": True})
    >>> msg.header("JMSCorrelationID")
    '7'
    """

    topic: str
    correlation_id: Optional[str] = None
    properties: Dict[str, Any] = field(default_factory=dict)
    body: bytes = b""
    priority: int = 4
    delivery_mode: DeliveryMode = DeliveryMode.PERSISTENT
    timestamp: float = 0.0
    expiration: Optional[float] = None
    #: Set when the message is served again after a failure (queue
    #: consumer detach, server crash recovery) — the ``JMSRedelivered``
    #: header consumers use to detect possible duplicates.
    redelivered: bool = False
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if not self.topic:
            raise MessageFormatError("message must carry a destination topic")
        if self.correlation_id is not None:
            if not isinstance(self.correlation_id, str):
                raise MessageFormatError("correlation id must be a string")
            if len(self.correlation_id.encode("utf-8")) > MAX_CORRELATION_ID_LENGTH:
                raise MessageFormatError(
                    f"correlation id exceeds {MAX_CORRELATION_ID_LENGTH} bytes"
                )
        if not 0 <= self.priority <= 9:
            raise MessageFormatError(f"priority must be in 0..9, got {self.priority}")
        if not isinstance(self.body, (bytes, bytearray)):
            raise MessageFormatError("body must be bytes")
        validated = {}
        for name, value in self.properties.items():
            validate_property_name(name)
            validated[name] = _validate_property_value(name, value)
        self.properties = validated

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Approximate wire size in bytes (headers + properties + body).

        Used by the network-traffic accounting of the distributed
        architectures; the paper's default is a 0-byte body.
        """
        header_size = 64  # fixed header fields
        if self.correlation_id is not None:
            header_size += len(self.correlation_id.encode("utf-8"))
        property_size = sum(
            len(name.encode("utf-8")) + _value_size(value)
            for name, value in self.properties.items()
        )
        return header_size + property_size + len(self.body)

    def header(self, name: str) -> Any:
        """Access JMS header fields by their selector identifier."""
        mapping = {
            "JMSMessageID": self.message_id,
            "JMSCorrelationID": self.correlation_id,
            "JMSPriority": self.priority,
            "JMSTimestamp": self.timestamp,
            "JMSDeliveryMode": self.delivery_mode.value,
            "JMSDestination": self.topic,
            "JMSRedelivered": self.redelivered,
        }
        if name not in mapping:
            raise KeyError(name)
        return mapping[name]

    def lookup(self, identifier: str) -> Any:
        """Resolve a selector identifier: header field or property.

        Returns ``None`` (SQL NULL / "unknown") for absent properties, as
        the JMS selector semantics require.
        """
        try:
            return self.header(identifier)
        except KeyError:
            return self.properties.get(identifier)

    def mark_redelivered(self) -> None:
        """Flag the message as served again (``JMSRedelivered``)."""
        self.redelivered = True

    def expired(self, now: float) -> bool:
        """Has the message passed its expiration time?"""
        return self.expiration is not None and now >= self.expiration

    def copy_for(self, subscriber_id: str) -> "DeliveredMessage":
        """Produce the per-subscriber delivery record (one per copy sent)."""
        return DeliveredMessage(message=self, subscriber_id=subscriber_id)


def _value_size(value: Any) -> int:
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    return len(str(value).encode("utf-8"))


@dataclass(frozen=True, slots=True)
class DeliveredMessage:
    """One dispatched copy of a message, addressed to one subscriber."""

    message: Message
    subscriber_id: str
