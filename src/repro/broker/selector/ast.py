"""Abstract syntax tree of the JMS selector language.

Every node can *unparse* itself back to selector text via ``str()``; the
property-based tests exercise the ``parse → str → parse`` round trip.

Nodes optionally carry a **source span** ``(start, end)`` — character
offsets into the selector text they were parsed from — which the static
analyzer (:mod:`repro.broker.selector.analysis`) uses for precise
diagnostics.  Spans are metadata: they participate in neither equality
nor hashing, so a parsed node still compares equal to a hand-built one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from ...diagnostics import Span

__all__ = [
    "Span",
    "Expr",
    "Literal",
    "Identifier",
    "Unary",
    "Binary",
    "Between",
    "InList",
    "Like",
    "IsNull",
    "iter_identifiers",
]


class Expr:
    """Base class for selector expressions."""

    #: Source span; concrete dataclasses override this with a field.
    span: Optional[Span] = None

    def children(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    """A string, numeric or boolean constant."""

    value: object
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class Identifier(Expr):
    """A property name or JMS header-field reference."""

    name: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Unary(Expr):
    """``NOT x``, ``-x`` or ``+x``."""

    op: str  # 'NOT', '-', '+'
    operand: Expr
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        if self.op == "NOT":
            return f"NOT ({self.operand})"
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator: comparisons, arithmetic, AND/OR."""

    op: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', 'AND', 'OR'
    left: Expr
    right: Expr
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high`` (bounds inclusive)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {word} {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    """``identifier [NOT] IN ('a', 'b', …)``."""

    operand: Expr
    values: Tuple[str, ...]
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        items = ", ".join(str(Literal(value)) for value in self.values)
        return f"({self.operand} {word} ({items}))"


@dataclass(frozen=True)
class Like(Expr):
    """``identifier [NOT] LIKE 'pattern' [ESCAPE 'e']``.

    ``%`` matches any substring, ``_`` any single character; the optional
    escape character makes the following wildcard literal.
    """

    operand: Expr
    pattern: str
    escape: str | None = None
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        text = f"({self.operand} {word} {Literal(self.pattern)}"
        if self.escape is not None:
            text += f" ESCAPE {Literal(self.escape)}"
        return text + ")"


@dataclass(frozen=True)
class IsNull(Expr):
    """``identifier IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {word})"


def iter_identifiers(expr: Expr) -> Iterator[str]:
    """Yield every identifier referenced in ``expr`` (with repeats)."""
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Identifier):
            yield node.name
        stack.extend(node.children())
