"""Exception hierarchy of the JMS-style broker."""

from __future__ import annotations

__all__ = [
    "JMSError",
    "InvalidSelectorError",
    "InvalidDestinationError",
    "MessageFormatError",
    "SubscriptionError",
    "FlowControlError",
    "ServerUnavailableError",
    "ServerOverloadedError",
    "ClientTimeoutError",
]


class JMSError(Exception):
    """Base class for all broker errors."""


class InvalidSelectorError(JMSError):
    """A message selector failed to lex, parse or type-check.

    Mirrors ``javax.jms.InvalidSelectorException``: the position and a
    human-readable reason are embedded in the message.
    """

    def __init__(self, reason: str, position: int | None = None):
        self.reason = reason
        self.position = position
        location = f" at position {position}" if position is not None else ""
        super().__init__(f"invalid selector{location}: {reason}")


class InvalidDestinationError(JMSError):
    """Operation addressed a topic that does not exist."""


class MessageFormatError(JMSError):
    """A message header or property has an unsupported type or value."""


class SubscriptionError(JMSError):
    """Invalid subscription operation (duplicate id, unknown subscriber…)."""


class FlowControlError(JMSError):
    """Violation of the publisher push-back protocol."""


class ServerUnavailableError(JMSError):
    """The server is down (crashed); in-flight operations fail fast.

    Resilient clients catch this and retry with backoff after the server
    restarts (see :mod:`repro.faults`).
    """


class ServerOverloadedError(JMSError):
    """The server refused the send to protect itself (overload control).

    Raised (or handed to ``on_reject``) when the admission controller's
    estimated utilization exceeds its watermark, or when the broker health
    state machine enters SHEDDING and fails publishers blocked on
    push-back credits.  Distinct from :class:`ServerUnavailableError`: the
    server is up, it is just saturated — a client should back off *more*
    aggressively, not probe harder.
    """


class ClientTimeoutError(JMSError):
    """The *client* gave up on a blocked send (``CLIENT_TIMEOUT`` fault).

    Raised to ``on_reject`` when an injected client-timeout fault fails a
    submit still waiting on push-back credits: the publisher's patience —
    not the server — is what expired.  Retrying after a client timeout is
    exactly the retry-amplification channel the fixed-point model of
    :mod:`repro.core.resilience` prices, so budgeted clients must charge
    these retries against their :class:`repro.resilience.RetryBudget`.
    """
