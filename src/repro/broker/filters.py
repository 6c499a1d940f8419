"""Subscriber-side message filters (Section II-A).

The paper distinguishes three selection mechanisms with increasing cost:

- **topics** — coarse, static partitioning (handled by the topic registry);
- **correlation-ID filters** — match the 128-byte ``JMSCorrelationID``
  header, with wildcard ranges such as ``[7;13]``;
- **application-property filters** — full message selectors over the
  user-defined property section.

Each subscriber installs exactly one filter (the JMS rule the paper
states); subscribers without a filter receive every message of their topic.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import Callable, Optional

from ..filter_type import FilterType
from .errors import InvalidSelectorError
from .message import Message
from .selector import Expr, Selector, selector_for

__all__ = [
    "FilterType",
    "MessageFilter",
    "MatchAllFilter",
    "CorrelationIdFilter",
    "PropertyFilter",
]

_RANGE_PATTERN = re.compile(r"^\[\s*(-?\d+)\s*;\s*(-?\d+)\s*\]$")


class MessageFilter(ABC):
    """One subscriber's message filter."""

    @abstractmethod
    def matches(self, message: Message) -> bool:
        """Does the filter accept ``message``?"""

    @property
    @abstractmethod
    def filter_type(self) -> Optional[FilterType]:
        """Cost category for the CPU model (None = no filter work)."""

    @property
    def is_trivial(self) -> bool:
        """True for match-all filters, which the server does not evaluate."""
        return self.filter_type is None

    def matcher(self) -> Callable[[Message], bool]:
        """A bound predicate for hot loops (``FilterIndex``, dispatch).

        Subclasses specialize this to skip per-call dispatch overhead;
        the default is simply the bound :meth:`matches`.
        """
        return self.matches

    def inline_ast(self) -> Optional[Expr]:
        """A selector AST whose TRUE verdict *is* this filter's, for the
        scan kernel (:func:`~repro.broker.selector.compile_scan`) to
        inline; ``None`` (the default) makes it call :meth:`matcher`."""
        return None

    def inline_key(self) -> Optional[str]:
        """What the scan kernel shares :meth:`inline_ast`'s generated code
        under: its ``repr``, which equal ASTs of unequal literal types
        (``TRUE``, ``1``, ``1.0``) do not share; ``None`` with no AST."""
        ast = self.inline_ast()
        return None if ast is None else repr(ast)


class MatchAllFilter(MessageFilter):
    """No filter installed: the subscriber receives all topic messages."""

    def matches(self, message: Message) -> bool:
        return True

    @property
    def filter_type(self) -> Optional[FilterType]:
        return None

    def __repr__(self) -> str:
        return "MatchAllFilter()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatchAllFilter)

    def __hash__(self) -> int:
        return hash(MatchAllFilter)


class CorrelationIdFilter(MessageFilter):
    """Filter on the ``JMSCorrelationID`` header.

    Supported specifications:

    - an exact string, e.g. ``"#0"``;
    - a numeric wildcard range ``"[low;high]"`` (the paper's ``[7;13]``
      example) matching messages whose correlation ID parses as an integer
      inside the inclusive range;
    - a trailing-``*`` prefix wildcard, e.g. ``"sensor-*"``.
    """

    def __init__(self, spec: str):
        if not isinstance(spec, str) or not spec:
            raise InvalidSelectorError("correlation-ID filter spec must be a non-empty string")
        self.spec = spec
        range_match = _RANGE_PATTERN.match(spec)
        if range_match:
            low, high = int(range_match.group(1)), int(range_match.group(2))
            if low > high:
                raise InvalidSelectorError(f"empty correlation-ID range {spec!r}")
            self._low: Optional[int] = low
            self._high: Optional[int] = high
            self._prefix: Optional[str] = None
        elif spec.endswith("*") and len(spec) > 1:
            self._low = self._high = None
            self._prefix = spec[:-1]
        else:
            self._low = self._high = None
            self._prefix = None

    @property
    def low(self) -> Optional[int]:
        """Inclusive lower bound of a ``[low;high]`` range spec, else None."""
        return self._low

    @property
    def high(self) -> Optional[int]:
        """Inclusive upper bound of a ``[low;high]`` range spec, else None."""
        return self._high

    @property
    def prefix(self) -> Optional[str]:
        """The prefix of a trailing-``*`` wildcard spec, else None."""
        return self._prefix

    @property
    def is_exact(self) -> bool:
        """True when the spec is a plain string (no range, no wildcard)."""
        return self._low is None and self._prefix is None

    def matches(self, message: Message) -> bool:
        cid = message.correlation_id
        if cid is None:
            return False
        if self._low is not None:
            try:
                value = int(cid)
            except ValueError:
                return False
            assert self._high is not None
            return self._low <= value <= self._high
        if self._prefix is not None:
            return cid.startswith(self._prefix)
        return cid == self.spec

    def matcher(self) -> Callable[[Message], bool]:
        if self._low is not None:
            low, high = self._low, self._high
            assert high is not None

            def match_range(message: Message) -> bool:
                cid = message.correlation_id
                if cid is None:
                    return False
                try:
                    value = int(cid)
                except ValueError:
                    return False
                return low <= value <= high

            return match_range
        if self._prefix is not None:
            prefix = self._prefix

            def match_prefix(message: Message) -> bool:
                cid = message.correlation_id
                return cid is not None and cid.startswith(prefix)

            return match_prefix
        spec = self.spec

        def match_exact(message: Message) -> bool:
            return message.correlation_id == spec

        return match_exact

    @property
    def filter_type(self) -> Optional[FilterType]:
        return FilterType.CORRELATION_ID

    def __repr__(self) -> str:
        return f"CorrelationIdFilter({self.spec!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CorrelationIdFilter) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((CorrelationIdFilter, self.spec))


class PropertyFilter(MessageFilter):
    """Application-property filter: a full message selector.

    The selector may combine several properties with AND/OR — the "more
    complex filters with a finer granularity" of Section II-A — which is
    why its evaluation costs roughly twice as much as a correlation-ID
    comparison (Table I).

    A filter built from text takes the process's one
    :class:`~repro.broker.selector.Selector` for that text
    (:func:`~repro.broker.selector.selector_for`), so filters of one text
    share its parse, canonical form and compiled matcher.
    """

    def __init__(self, selector: Selector | str):
        self.selector = selector if isinstance(selector, Selector) else selector_for(selector)

    def matches(self, message: Message) -> bool:
        return self.selector.matches(message)

    def matcher(self) -> Callable[[Message], bool]:
        return self.selector.matcher()

    def inline_ast(self) -> Optional[Expr]:
        return self.selector.canonical

    def inline_key(self) -> Optional[str]:
        return self.selector.canonical_repr

    @property
    def filter_type(self) -> Optional[FilterType]:
        return FilterType.APP_PROPERTY

    @property
    def canonical_key(self) -> str:
        """Canonical-form text of the selector: equal for semantically
        equivalent filters, so the filter index can share one evaluation
        across textually different subscriptions."""
        return self.selector.canonical_text

    def __repr__(self) -> str:
        return f"PropertyFilter({self.selector.text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PropertyFilter) and self.selector == other.selector

    def __hash__(self) -> int:
        return hash((PropertyFilter, self.selector))
