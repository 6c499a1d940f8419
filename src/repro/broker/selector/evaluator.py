"""Three-valued evaluation of selector ASTs against messages.

JMS selectors use SQL-92 semantics: an absent property evaluates to NULL,
comparisons involving NULL or incompatible types yield *unknown*, and
``AND``/``OR``/``NOT`` follow Kleene three-valued logic.  A message matches
a selector only when the whole expression evaluates to *true*.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any

from ..errors import InvalidSelectorError
from .ast import Between, Binary, Expr, Identifier, InList, IsNull, Like, Literal, Unary

__all__ = ["UNKNOWN", "evaluate", "matches"]


class _Unknown:
    """SQL's third truth value; also the result of NULL-tainted arithmetic."""

    _instance: "_Unknown | None" = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:  # pragma: no cover - guards accidental truthiness
        raise TypeError("UNKNOWN has no truth value; handle it explicitly")


UNKNOWN = _Unknown()


def matches(expr: Expr, message: Any) -> bool:
    """Does ``message`` satisfy the selector? (unknown counts as no-match)."""
    return evaluate(expr, message) is True


def evaluate(expr: Expr, message: Any):
    """Evaluate ``expr``; returns ``True``/``False``/:data:`UNKNOWN`,
    a number, or a string (for sub-expressions)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Identifier):
        value = message.lookup(expr.name)
        return UNKNOWN if value is None else value
    if isinstance(expr, Unary):
        return _evaluate_unary(expr, message)
    if isinstance(expr, Binary):
        return _evaluate_binary(expr, message)
    if isinstance(expr, Between):
        return _evaluate_between(expr, message)
    if isinstance(expr, InList):
        return _evaluate_in(expr, message)
    if isinstance(expr, Like):
        return _evaluate_like(expr, message)
    if isinstance(expr, IsNull):
        return _evaluate_is_null(expr, message)
    raise InvalidSelectorError(f"unknown AST node {type(expr).__name__}")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _is_number(value: Any) -> bool:
    """An int or a float that is a value one can order — never a bool,
    never NaN.  NaN is what SQL has no word for: it equals nothing and
    lies on no side of anything, so ``NOT (x < 5)`` and ``x >= 5`` could
    not both be right about it.  Treating it like NULL (every comparison
    UNKNOWN) keeps complementary-operator negation sound."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


def _not3(value):
    if value is UNKNOWN:
        return UNKNOWN
    if isinstance(value, bool):
        return not value
    return UNKNOWN  # NOT of a non-boolean is not a valid condition


def _and3(left, right):
    if left is False or right is False:
        return False
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if isinstance(left, bool) and isinstance(right, bool):
        return left and right
    return UNKNOWN


def _or3(left, right):
    if left is True or right is True:
        return True
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if isinstance(left, bool) and isinstance(right, bool):
        return left or right
    return UNKNOWN


def _evaluate_unary(expr: Unary, message: Any):
    value = evaluate(expr.operand, message)
    if expr.op == "NOT":
        return _not3(value)
    if value is UNKNOWN:
        return UNKNOWN
    if not _is_number(value):
        return UNKNOWN
    return value if expr.op == "+" else -value


def _evaluate_binary(expr: Binary, message: Any):
    if expr.op == "AND":
        return _and3(evaluate(expr.left, message), evaluate(expr.right, message))
    if expr.op == "OR":
        return _or3(evaluate(expr.left, message), evaluate(expr.right, message))
    left = evaluate(expr.left, message)
    right = evaluate(expr.right, message)
    if expr.op in ("+", "-", "*", "/"):
        return _arith(expr.op, left, right)
    return _compare(expr.op, left, right)


def _arith(op: str, left, right):
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if not (_is_number(left) and _is_number(right)):
        return UNKNOWN
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        return UNKNOWN  # SQL: division by zero poisons the predicate
    result = left / right
    # SQL exact division of integers stays exact when it divides evenly.
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return left // right
    return result


def _compare(op: str, left, right):
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    left_num, right_num = _is_number(left), _is_number(right)
    if left_num and right_num:
        pass  # numeric promotion is implicit in Python
    elif isinstance(left, bool) and isinstance(right, bool):
        if op not in ("=", "<>"):
            return UNKNOWN  # booleans support only (in)equality
    elif isinstance(left, str) and isinstance(right, str):
        if op not in ("=", "<>"):
            return UNKNOWN  # JMS: strings support only = and <>
    else:
        return UNKNOWN  # incompatible types never compare
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise InvalidSelectorError(f"unknown comparison operator {op!r}")


def _evaluate_between(expr: Between, message: Any):
    value = evaluate(expr.operand, message)
    low = evaluate(expr.low, message)
    high = evaluate(expr.high, message)
    if UNKNOWN in (value, low, high):
        return UNKNOWN
    if not (_is_number(value) and _is_number(low) and _is_number(high)):
        return UNKNOWN  # BETWEEN is defined for arithmetic operands only
    result = low <= value <= high
    return (not result) if expr.negated else result


def _evaluate_in(expr: InList, message: Any):
    value = evaluate(expr.operand, message)
    if value is UNKNOWN:
        return UNKNOWN
    if not isinstance(value, str):
        return UNKNOWN  # JMS: IN applies to string identifiers
    result = value in expr.values
    return (not result) if expr.negated else result


@lru_cache(maxsize=4096)
def _like_regex(pattern: str, escape: str | None) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= len(pattern):
                raise InvalidSelectorError(
                    f"dangling escape character in LIKE pattern {pattern!r}"
                )
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out), flags=re.DOTALL)


def _evaluate_like(expr: Like, message: Any):
    value = evaluate(expr.operand, message)
    if value is UNKNOWN:
        return UNKNOWN
    if not isinstance(value, str):
        return UNKNOWN  # LIKE applies to string-valued identifiers
    result = _like_regex(expr.pattern, expr.escape).fullmatch(value) is not None
    return (not result) if expr.negated else result


def _evaluate_is_null(expr: IsNull, message: Any):
    # Evaluate the identifier directly: UNKNOWN here *is* the information.
    assert isinstance(expr.operand, Identifier)
    value = message.lookup(expr.operand.name)
    is_null = value is None
    return (not is_null) if expr.negated else is_null
