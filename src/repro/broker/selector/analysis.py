"""Static analysis of message selectors: types, satisfiability, canonical form.

The paper's cost model charges ``t_fltr`` for *every* installed filter on
*every* message (Eq. 1) and gives a usefulness criterion for when filters
pay for themselves (Eq. 3).  Both make defective selectors expensive:

- an **ill-typed** selector (``price = 'cheap'``, ``name BETWEEN 1 AND 2``)
  can never evaluate to TRUE, yet a provider that accepts it pays
  ``t_fltr`` per message forever;
- a **dead** (unsatisfiable) selector (``price > 10 AND price < 5``)
  likewise burns ``t_fltr`` per message and never delivers;
- a **trivial** (tautological) selector (``x = x OR TRUE``) delivers every
  message: ``p_match = 1`` makes Eq. 3 fail, so the filter strictly
  reduces capacity compared to subscribing without one.

This module finds all three *before* dispatch ever runs, via three passes
over the selector AST:

1. :func:`type_check` — JMS/SQL-92 typing rules with span-carrying
   diagnostics (:class:`~repro.diagnostics.Diagnostic`);
2. :func:`simplify` — a behavior-preserving constant folder and
   canonicalizer (negation push-down, BETWEEN/IN/LIKE lowering, operand
   ordering) whose output is a **canonical normal form**: semantically
   equal selectors simplify to equal ASTs, so
   :class:`~repro.broker.filter_index.FilterIndex` can share evaluation
   across textually different but equivalent filters;
3. :func:`never_matches` / :func:`always_matches` — a sound (incomplete)
   satisfiability/tautology detector over the canonical form using
   interval reasoning and complementary-predicate detection.

Every rewrite in pass 2 preserves the exact three-valued evaluation
result (not just the final match verdict); the property-based test suite
checks ``evaluate(simplify(e), m) is evaluate(e, m)`` over random
selectors and messages, including NULL-property cases.

>>> from repro.broker.selector import parse
>>> from repro.broker.selector.analysis import analyze
>>> analyze("price > 10 AND price < 5").unsatisfiable
True
>>> analyze("x = x OR TRUE").tautological
True
>>> analyze("'EU' = region").canonical_text
"(region = 'EU')"
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Tuple, Union

from ..errors import InvalidSelectorError
from .ast import (
    Between,
    Binary,
    Expr,
    Identifier,
    InList,
    IsNull,
    Like,
    Literal,
    Span,
    Unary,
    iter_identifiers,
)
from ...diagnostics import Diagnostic, Severity, render_diagnostics
from .evaluator import UNKNOWN, evaluate
from .parser import parse

__all__ = [
    "SelectorType",
    "type_check",
    "infer_type",
    "simplify",
    "canonicalize",
    "canonical_text",
    "never_matches",
    "always_matches",
    "SelectorAnalysis",
    "analyze",
    "check_selector",
]


# ----------------------------------------------------------------------
# Pass 1: type checking
# ----------------------------------------------------------------------
class SelectorType(enum.Enum):
    """Static type of a selector sub-expression."""

    NUMERIC = "numeric"
    STRING = "string"
    BOOLEAN = "boolean"
    #: A property reference — JMS properties are dynamically typed, so an
    #: identifier admits any type until its uses pin it down.
    ANY = "any"

    def __str__(self) -> str:
        return self.value


#: JMS header fields have fixed, statically known types.
_NUMERIC_HEADERS = frozenset({"JMSMessageID", "JMSPriority", "JMSTimestamp"})
_STRING_HEADERS = frozenset({"JMSCorrelationID", "JMSDeliveryMode", "JMSDestination"})
_BOOLEAN_HEADERS = frozenset({"JMSRedelivered"})

_ORDERING_OPS = ("<", "<=", ">", ">=")
_COMPARISON_OPS = ("=", "<>") + _ORDERING_OPS
_ARITH_OPS = ("+", "-", "*", "/")


class _TypeChecker:
    """One type-checking walk; collects span-carrying diagnostics."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []
        #: identifier -> (pinned type, span of the pinning use)
        self._uses: Dict[str, Tuple[SelectorType, Optional[Span]]] = {}

    # -- helpers --------------------------------------------------------
    def _error(self, code: str, message: str, span: Optional[Span]) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, span))

    def _warn(self, code: str, message: str, span: Optional[Span]) -> None:
        self.diagnostics.append(Diagnostic(Severity.WARNING, code, message, span))

    def _pin(self, expr: Expr, required: SelectorType) -> None:
        """Record that identifier ``expr`` is used where ``required`` is needed."""
        if not isinstance(expr, Identifier) or required is SelectorType.ANY:
            return
        if self._header_type(expr.name) is not None:
            return  # header types are fixed; mismatches are hard errors
        seen = self._uses.get(expr.name)
        if seen is None:
            self._uses[expr.name] = (required, expr.span)
        elif seen[0] is not required:
            self._warn(
                "W_TYPE_CONFLICT",
                f"property {expr.name!r} is used as {seen[0]} elsewhere but as"
                f" {required} here; the selector cannot be true in both uses",
                expr.span,
            )

    @staticmethod
    def _header_type(name: str) -> Optional[SelectorType]:
        if name in _NUMERIC_HEADERS:
            return SelectorType.NUMERIC
        if name in _STRING_HEADERS:
            return SelectorType.STRING
        if name in _BOOLEAN_HEADERS:
            return SelectorType.BOOLEAN
        return None

    # -- inference ------------------------------------------------------
    def infer(self, expr: Expr) -> SelectorType:
        if isinstance(expr, Literal):
            if isinstance(expr.value, bool):
                return SelectorType.BOOLEAN
            if isinstance(expr.value, str):
                return SelectorType.STRING
            return SelectorType.NUMERIC
        if isinstance(expr, Identifier):
            return self._header_type(expr.name) or SelectorType.ANY
        if isinstance(expr, Unary):
            return self._infer_unary(expr)
        if isinstance(expr, Binary):
            return self._infer_binary(expr)
        if isinstance(expr, Between):
            for part, role in ((expr.operand, "operand"), (expr.low, "low bound"),
                               (expr.high, "high bound")):
                t = self.infer(part)
                if t not in (SelectorType.NUMERIC, SelectorType.ANY):
                    self._error(
                        "E_TYPE_BETWEEN",
                        f"BETWEEN requires numeric operands; the {role} is {t}",
                        part.span,
                    )
                self._pin(part, SelectorType.NUMERIC)
            return SelectorType.BOOLEAN
        if isinstance(expr, InList):
            self._require_string_identifier(expr.operand, "IN", "E_TYPE_IN")
            return SelectorType.BOOLEAN
        if isinstance(expr, Like):
            self._require_string_identifier(expr.operand, "LIKE", "E_TYPE_LIKE")
            self._check_like_pattern(expr)
            return SelectorType.BOOLEAN
        if isinstance(expr, IsNull):
            return SelectorType.BOOLEAN
        raise InvalidSelectorError(f"unknown AST node {type(expr).__name__}")

    def _require_string_identifier(self, operand: Expr, construct: str, code: str) -> None:
        t = self.infer(operand)
        if t not in (SelectorType.STRING, SelectorType.ANY):
            self._error(
                code,
                f"{construct} requires a string-valued identifier, got {t}",
                operand.span,
            )
        self._pin(operand, SelectorType.STRING)

    def _check_like_pattern(self, expr: Like) -> None:
        if expr.escape is None:
            return
        i, n = 0, len(expr.pattern)
        while i < n:
            if expr.pattern[i] == expr.escape:
                if i + 1 >= n:
                    self._error(
                        "E_LIKE_ESCAPE",
                        f"dangling escape character in LIKE pattern {expr.pattern!r}",
                        expr.span,
                    )
                    return
                i += 2
            else:
                i += 1

    def _infer_unary(self, expr: Unary) -> SelectorType:
        t = self.infer(expr.operand)
        if expr.op == "NOT":
            if t in (SelectorType.NUMERIC, SelectorType.STRING):
                self._error(
                    "E_TYPE_NOT",
                    f"NOT requires a boolean condition, got a {t} expression",
                    expr.operand.span,
                )
            self._pin(expr.operand, SelectorType.BOOLEAN)
            return SelectorType.BOOLEAN
        if t in (SelectorType.STRING, SelectorType.BOOLEAN):
            self._error(
                "E_TYPE_SIGN",
                f"unary {expr.op!r} requires a numeric operand, got {t}",
                expr.operand.span,
            )
        self._pin(expr.operand, SelectorType.NUMERIC)
        return SelectorType.NUMERIC

    def _infer_binary(self, expr: Binary) -> SelectorType:
        if expr.op in ("AND", "OR"):
            for side in (expr.left, expr.right):
                t = self.infer(side)
                if t in (SelectorType.NUMERIC, SelectorType.STRING):
                    self._error(
                        "E_TYPE_LOGIC",
                        f"{expr.op} requires boolean conditions, got a {t} operand",
                        side.span,
                    )
                self._pin(side, SelectorType.BOOLEAN)
            return SelectorType.BOOLEAN
        if expr.op in _ARITH_OPS:
            for side in (expr.left, expr.right):
                t = self.infer(side)
                if t in (SelectorType.STRING, SelectorType.BOOLEAN):
                    self._error(
                        "E_TYPE_ARITH",
                        f"arithmetic {expr.op!r} requires numeric operands, got {t}",
                        side.span,
                    )
                self._pin(side, SelectorType.NUMERIC)
            return SelectorType.NUMERIC
        if expr.op in _ORDERING_OPS:
            for side in (expr.left, expr.right):
                t = self.infer(side)
                if t in (SelectorType.STRING, SelectorType.BOOLEAN):
                    self._error(
                        "E_TYPE_ORDERING",
                        f"{expr.op!r} requires numeric operands ({t}s support"
                        f" only '=' and '<>')",
                        side.span,
                    )
                self._pin(side, SelectorType.NUMERIC)
            return SelectorType.BOOLEAN
        # equality: both sides must belong to the same type category
        lt, rt = self.infer(expr.left), self.infer(expr.right)
        concrete = {SelectorType.NUMERIC, SelectorType.STRING, SelectorType.BOOLEAN}
        if lt in concrete and rt in concrete and lt is not rt:
            self._error(
                "E_TYPE_COMPARISON",
                f"cannot compare {lt} with {rt}: the comparison is never true",
                expr.span,
            )
        if lt in concrete:
            self._pin(expr.right, lt)
        if rt in concrete:
            self._pin(expr.left, rt)
        return SelectorType.BOOLEAN


def type_check(expr: Expr) -> List[Diagnostic]:
    """Type-check a selector AST against the JMS/SQL-92 typing rules.

    Returns span-carrying diagnostics; an empty list means well-typed.
    The selector as a whole must be a boolean condition.
    """
    checker = _TypeChecker()
    top = checker.infer(expr)
    if top in (SelectorType.NUMERIC, SelectorType.STRING):
        checker._error(
            "E_TYPE_CONDITION",
            f"a selector must be a boolean condition, not a {top} expression",
            expr.span,
        )
    return checker.diagnostics


def infer_type(expr: Expr) -> SelectorType:
    """The static type of ``expr`` (diagnostics discarded)."""
    return _TypeChecker().infer(expr)


# ----------------------------------------------------------------------
# Pass 2: constant folding, simplification, canonicalization
# ----------------------------------------------------------------------
def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_condition(expr: Expr) -> bool:
    """Does ``expr`` always evaluate to True/False/UNKNOWN (never a raw value)?

    Only condition nodes may be dropped, deduplicated or double-negation-
    eliminated: a bare identifier evaluates to its (possibly numeric)
    property value, so ``NOT NOT x`` is *not* equivalent to ``x``.
    """
    if isinstance(expr, Literal):
        return isinstance(expr.value, bool)
    if isinstance(expr, Binary):
        return expr.op in _COMPARISON_OPS or expr.op in ("AND", "OR")
    if isinstance(expr, Unary):
        return expr.op == "NOT"  # NOT of anything is three-valued
    return isinstance(expr, (Between, InList, Like, IsNull))


_NEGATED_COMPARISON = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_MIRRORED_COMPARISON = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _nnf(expr: Expr) -> Expr:
    """Push NOT down to the predicates (negation normal form)."""
    if isinstance(expr, Unary) and expr.op == "NOT":
        return _negate(_nnf(expr.operand))
    if isinstance(expr, Binary) and expr.op in ("AND", "OR"):
        return Binary(expr.op, _nnf(expr.left), _nnf(expr.right), span=expr.span)
    return expr


def _negate(expr: Expr) -> Expr:
    """The negation of an NNF expression, itself in NNF.

    Every rewrite here preserves three-valued semantics exactly: De Morgan
    holds in Kleene logic, comparison negation flips to the complementary
    operator (both sides return UNKNOWN under the same conditions), and
    the ``negated`` flags of BETWEEN/IN/LIKE/IS NULL toggle after the
    UNKNOWN short-circuit, mirroring ``NOT``.
    """
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        return Literal(not expr.value, span=expr.span)
    if isinstance(expr, Binary):
        if expr.op == "AND":
            return Binary("OR", _negate(expr.left), _negate(expr.right), span=expr.span)
        if expr.op == "OR":
            return Binary("AND", _negate(expr.left), _negate(expr.right), span=expr.span)
        if expr.op in _NEGATED_COMPARISON:
            return Binary(_NEGATED_COMPARISON[expr.op], expr.left, expr.right, span=expr.span)
    if isinstance(expr, Between):
        return Between(expr.operand, expr.low, expr.high, negated=not expr.negated,
                       span=expr.span)
    if isinstance(expr, InList):
        return InList(expr.operand, expr.values, negated=not expr.negated, span=expr.span)
    if isinstance(expr, Like):
        return Like(expr.operand, expr.pattern, escape=expr.escape,
                    negated=not expr.negated, span=expr.span)
    if isinstance(expr, IsNull):
        return IsNull(expr.operand, negated=not expr.negated, span=expr.span)
    if isinstance(expr, Unary) and expr.op == "NOT" and _is_condition(expr.operand):
        return expr.operand  # NOT (NOT p) == p for three-valued conditions
    return Unary("NOT", expr, span=expr.span)


def _fold(expr: Expr) -> Expr:
    """Fold ``expr`` to a literal when it is message-independent."""
    if isinstance(expr, Literal) or any(True for _ in iter_identifiers(expr)):
        return expr
    try:
        value = evaluate(expr, None)
    except InvalidSelectorError:
        return expr
    if value is UNKNOWN:
        return expr  # no NULL literal exists in the language; keep the node
    if isinstance(value, float) and not math.isfinite(value):
        return expr  # overflow would unparse to 'inf'/'nan' and not re-parse
    return Literal(value, span=expr.span)


def _sort_key(expr: Expr) -> str:
    return str(expr)


def _like_as_literal(pattern: str, escape: Optional[str]) -> Optional[str]:
    """The literal string a wildcard-free LIKE pattern matches, else None."""
    out: List[str] = []
    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= n:
                return None  # dangling escape: leave for the type checker
            out.append(pattern[i + 1])
            i += 2
            continue
        if ch in ("%", "_"):
            return None
        out.append(ch)
        i += 1
    return "".join(out)


def _flatten(op: str, expr: Expr) -> List[Expr]:
    if isinstance(expr, Binary) and expr.op == op:
        return _flatten(op, expr.left) + _flatten(op, expr.right)
    return [expr]


def _rebuild(op: str, terms: List[Expr], span: Optional[Span]) -> Expr:
    return reduce(lambda a, b: Binary(op, a, b), terms[1:], terms[0])


def _canon_chain(op: str, terms: List[Expr], span: Optional[Span]) -> Expr:
    """Canonicalize one AND/OR chain: absorb, drop, dedupe, sort."""
    dominant = op == "AND"  # the literal that decides the whole chain
    # FALSE dominates AND, TRUE dominates OR — regardless of other operands.
    for term in terms:
        if isinstance(term, Literal) and term.value is not dominant and isinstance(term.value, bool):
            return Literal(not dominant)
    # Complementary IS NULL pair: the only two-valued predicate, so
    # `x IS NULL AND x IS NOT NULL` is False (and the OR dual True).
    nulls = {(t.operand, t.negated) for t in terms if isinstance(t, IsNull)}
    if any((operand, not negated) in nulls for operand, negated in nulls):
        return Literal(not dominant)
    # Drop the neutral literal (TRUE in AND, FALSE in OR).  Safe when other
    # terms remain: AND/OR treat every operand through its three-valued
    # coercion, for which the neutral literal is an identity.
    kept = [t for t in terms
            if not (isinstance(t, Literal) and isinstance(t.value, bool))]
    if not kept:
        return Literal(dominant)
    # Dedupe equal condition terms (idempotence holds in Kleene logic).
    seen: List[Expr] = []
    for term in kept:
        if _is_condition(term) and term in seen:
            continue
        seen.append(term)
    if len(seen) == 1:
        single = seen[0]
        if _is_condition(single) or len(kept) == len(terms):
            return single
        # `TRUE AND x` with non-condition x coerces x; keep the structure.
        return Binary(op, Literal(dominant), single, span=span)
    seen.sort(key=_sort_key)
    return _rebuild(op, seen, span)


def simplify(expr: Expr) -> Expr:
    """Simplify ``expr`` to its canonical normal form.

    The result evaluates *identically* to the input on every message
    (including NULL-property and type-mismatch cases), and semantically
    equal selectors produce equal canonical ASTs in all the cases the
    rewriter understands: constant folding, double negation, De Morgan,
    comparison orientation, AND/OR flattening/sorting/deduplication,
    BETWEEN/IN lowering and wildcard-free LIKE lowering.  Canonicalization
    is idempotent: ``simplify(simplify(e)) == simplify(e)``.
    """
    return _canon(_nnf(expr))


#: Alias emphasising the canonical-form use over the simplification use.
canonicalize = simplify


def canonical_text(expr: Expr) -> str:
    """The canonical form of ``expr``, unparsed to selector text."""
    return str(simplify(expr))


def _canon(expr: Expr) -> Expr:
    if isinstance(expr, (Literal, Identifier)):
        return expr
    if isinstance(expr, Unary):
        operand = _canon(expr.operand)
        if expr.op == "NOT":
            # canonicalizing the operand may have exposed a foldable form
            negated = _negate(operand)
            if not (isinstance(negated, Unary) and negated.op == "NOT"):
                return _canon(negated)
            return negated
        return _fold(Unary(expr.op, operand, span=expr.span))
    if isinstance(expr, Binary):
        return _canon_binary(expr)
    if isinstance(expr, Between):
        return _canon_between(expr)
    if isinstance(expr, InList):
        return _canon_in(expr)
    if isinstance(expr, Like):
        literal = _like_as_literal(expr.pattern, expr.escape)
        if literal is not None:
            op = "<>" if expr.negated else "="
            return _canon(Binary(op, expr.operand, Literal(literal), span=expr.span))
        return expr
    return expr  # IsNull and anything already canonical


def _canon_binary(expr: Binary) -> Expr:
    if expr.op in ("AND", "OR"):
        terms = [_canon(t) for t in _flatten(expr.op, expr)]
        # a term may itself canonicalize to a nested chain (e.g. BETWEEN
        # lowering); flatten once more over the canonical terms
        flat: List[Expr] = []
        for term in terms:
            flat.extend(_flatten(expr.op, term))
        return _canon_chain(expr.op, flat, expr.span)
    left, right = _canon(expr.left), _canon(expr.right)
    node = Binary(expr.op, left, right, span=expr.span)
    folded = _fold(node)
    if folded is not node:
        return folded
    if expr.op in _MIRRORED_COMPARISON:
        if isinstance(left, Literal) and not isinstance(right, Literal):
            # orient comparisons value-last: `5 < x` becomes `x > 5`
            return Binary(_MIRRORED_COMPARISON[expr.op], right, left, span=expr.span)
        if expr.op in ("=", "<>") and isinstance(left, Literal) == isinstance(right, Literal):
            if _sort_key(right) < _sort_key(left):
                return Binary(expr.op, right, left, span=expr.span)
    elif expr.op in ("+", "*"):
        # IEEE addition/multiplication of two operands is commutative,
        # so a deterministic operand order is behavior-preserving
        if _sort_key(right) < _sort_key(left):
            return Binary(expr.op, right, left, span=expr.span)
    return node


def _canon_between(expr: Between) -> Expr:
    operand = _canon(expr.operand)
    low, high = _canon(expr.low), _canon(expr.high)
    literal_bounds = (
        isinstance(low, Literal) and _is_number(low.value)
        and isinstance(high, Literal) and _is_number(high.value)
    )
    if not literal_bounds:
        # with non-literal bounds, a bound may be NULL/non-numeric while
        # the comparisons split; lowering would not be behavior-preserving
        return Between(operand, low, high, negated=expr.negated, span=expr.span)
    if expr.negated:
        lowered: Expr = Binary(
            "OR",
            Binary("<", operand, low, span=expr.span),
            Binary(">", operand, high, span=expr.span),
            span=expr.span,
        )
    else:
        lowered = Binary(
            "AND",
            Binary(">=", operand, low, span=expr.span),
            Binary("<=", operand, high, span=expr.span),
            span=expr.span,
        )
    return _canon(lowered)


def _canon_in(expr: InList) -> Expr:
    operand = _canon(expr.operand)
    op, joiner = ("<>", "AND") if expr.negated else ("=", "OR")
    comparisons: List[Expr] = [
        Binary(op, operand, Literal(value), span=expr.span) for value in expr.values
    ]
    return _canon(_rebuild(joiner, comparisons, expr.span))


# ----------------------------------------------------------------------
# Pass 3: satisfiability / tautology detection
# ----------------------------------------------------------------------
class _IdentFacts:
    """Accumulated constraints one AND-chain places on one identifier."""

    def __init__(self) -> None:
        self.lo = -math.inf
        self.lo_strict = False
        self.hi = math.inf
        self.hi_strict = False
        self.equal: Optional[object] = None  # pinned by `x = literal`
        self.excluded: set = set()  # from `x <> literal`
        self.kind: Optional[str] = None  # 'numeric' | 'string' | 'boolean'
        self.null_required = False
        self.value_required = False
        self.contradiction = False

    def require_kind(self, kind: str) -> None:
        if self.kind is None:
            self.kind = kind
        elif self.kind != kind:
            self.contradiction = True
        self.value_required = True

    def add_bound(self, op: str, value: float) -> None:
        self.require_kind("numeric")
        if op in (">", ">="):
            strict = op == ">"
            if value > self.lo or (value == self.lo and strict and not self.lo_strict):
                self.lo, self.lo_strict = value, strict
        else:
            strict = op == "<"
            if value < self.hi or (value == self.hi and strict and not self.hi_strict):
                self.hi, self.hi_strict = value, strict

    def add_equal(self, value: object) -> None:
        self.require_kind(_fact_kind(value))
        if self.equal is not None and not _values_equal(self.equal, value):
            self.contradiction = True
        self.equal = value

    def add_excluded(self, value: object) -> None:
        self.require_kind(_fact_kind(value))
        self.excluded.add(_fact_key(value))

    def impossible(self) -> bool:
        if self.contradiction:
            return True
        if self.null_required and self.value_required:
            return True  # comparisons against NULL are never TRUE
        if self.lo > self.hi or (self.lo == self.hi and (self.lo_strict or self.hi_strict)):
            return True
        if self.equal is not None:
            if _fact_key(self.equal) in self.excluded:
                return True
            if _is_number(self.equal):
                v = self.equal
                if v < self.lo or (v == self.lo and self.lo_strict):
                    return True
                if v > self.hi or (v == self.hi and self.hi_strict):
                    return True
        return False


def _fact_kind(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, str):
        return "string"
    return "numeric"


def _fact_key(value: object) -> object:
    # booleans hash like 0/1; tag them so `x <> TRUE` cannot exclude `x = 1`
    return ("bool", value) if isinstance(value, bool) else value


def _values_equal(a: object, b: object) -> bool:
    return _fact_kind(a) == _fact_kind(b) and a == b


def never_matches(expr: Expr) -> bool:
    """Sound dead-filter detection: True means no message can ever match.

    Works over the canonical form: interval reasoning on per-identifier
    numeric bounds, equality/exclusion conflicts, string-vs-numeric kind
    conflicts, NULL-vs-value conflicts and complementary predicate pairs.
    A False result means "not provably dead", not "satisfiable".
    """
    return _never_true(simplify(expr))


def always_matches(expr: Expr) -> bool:
    """Sound tautology detection: True means every message matches."""
    return simplify(expr) == Literal(True)


def _never_true(expr: Expr) -> bool:
    if isinstance(expr, Literal):
        return expr.value is not True
    if not any(True for _ in iter_identifiers(expr)):
        # message-independent but unfoldable: it evaluated to UNKNOWN
        # (e.g. `17 = 'cheap'`), and UNKNOWN never matches
        try:
            return evaluate(expr, None) is not True
        except InvalidSelectorError:
            return False
    if isinstance(expr, Binary) and expr.op == "OR":
        return all(_never_true(term) for term in _flatten("OR", expr))
    if isinstance(expr, Binary) and expr.op == "AND":
        conjuncts = _flatten("AND", expr)
        if any(_never_true(c) for c in conjuncts if not isinstance(c, Identifier)):
            return True
        return _contradictory(conjuncts)
    return False


def _complement(expr: Expr) -> Optional[Expr]:
    """The syntactic complement of a predicate, when one exists."""
    if isinstance(expr, (Between, InList, Like, IsNull)):
        return _negate(expr)
    if isinstance(expr, Unary) and expr.op == "NOT":
        return expr.operand
    if isinstance(expr, Identifier):
        return Unary("NOT", expr)
    return None


def _contradictory(conjuncts: List[Expr]) -> bool:
    """Can the conjunction be shown to never evaluate to TRUE?"""
    members = list(conjuncts)
    for conjunct in conjuncts:
        complement = _complement(conjunct)
        if complement is not None and complement in members:
            return True  # p AND NOT p is never TRUE (it may be UNKNOWN)
    facts: Dict[str, _IdentFacts] = {}

    def fact(name: str) -> _IdentFacts:
        return facts.setdefault(name, _IdentFacts())

    for conjunct in conjuncts:
        if isinstance(conjunct, IsNull) and isinstance(conjunct.operand, Identifier):
            if not conjunct.negated:
                fact(conjunct.operand.name).null_required = True
        elif isinstance(conjunct, (Like, InList, Between)):
            operand = conjunct.operand
            if isinstance(operand, Identifier):
                kind = "numeric" if isinstance(conjunct, Between) else "string"
                fact(operand.name).require_kind(kind)
        elif isinstance(conjunct, Binary) and conjunct.op in _COMPARISON_OPS:
            left, right = conjunct.left, conjunct.right
            if not (isinstance(left, Identifier) and isinstance(right, Literal)):
                continue
            state = fact(left.name)
            value = right.value
            if conjunct.op == "=":
                state.add_equal(value)
            elif conjunct.op == "<>":
                state.add_excluded(value)
            elif _is_number(value):
                state.add_bound(conjunct.op, value)
            else:
                state.require_kind("numeric")  # ordering demands numbers
                state.contradiction = True  # ... but the literal is not one
    return any(state.impossible() for state in facts.values())


# ----------------------------------------------------------------------
# The analyzer entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectorAnalysis:
    """Everything the static analyzer knows about one selector."""

    text: str
    ast: Expr
    diagnostics: Tuple[Diagnostic, ...]
    canonical: Expr
    canonical_text: str
    #: No message can ever match (dead filter: pure ``t_fltr`` waste).
    unsatisfiable: bool
    #: Every message matches (trivial filter: ``p_match = 1`` fails Eq. 3).
    tautological: bool

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)

    @property
    def ok(self) -> bool:
        """Well-typed, satisfiable and non-trivial."""
        return not self.diagnostics

    def render(self) -> str:
        """Human-readable report with source-underlined diagnostics."""
        return render_diagnostics(self.diagnostics, self.text)


def analyze(selector: Union[str, Expr]) -> SelectorAnalysis:
    """Run all three analysis passes over a selector.

    Accepts selector text (parsed first; parse failures raise
    :class:`~repro.broker.errors.InvalidSelectorError` like any JMS
    provider must) or an already-parsed AST.
    """
    if isinstance(selector, str):
        text = selector
        ast = parse(selector)
    else:
        text = str(selector)
        ast = selector
    diagnostics = list(type_check(ast))
    canonical = simplify(ast)
    unsat = _never_true(canonical)
    trivial = canonical == Literal(True)
    span = ast.span
    if unsat:
        diagnostics.append(
            Diagnostic(
                Severity.WARNING,
                "W_UNSATISFIABLE",
                "selector can never match: the filter is dead weight"
                " (t_fltr per message, zero deliveries)",
                span,
            )
        )
    if trivial:
        diagnostics.append(
            Diagnostic(
                Severity.WARNING,
                "W_TAUTOLOGY",
                "selector matches every message (p_match = 1): by Eq. 3 the"
                " filter only costs capacity — subscribe without one",
                span,
            )
        )
    return SelectorAnalysis(
        text=text,
        ast=ast,
        diagnostics=tuple(diagnostics),
        canonical=canonical,
        canonical_text=str(canonical),
        unsatisfiable=unsat,
        tautological=trivial,
    )


def check_selector(
    selector: Union[str, Expr, SelectorAnalysis], strict: bool = True
) -> SelectorAnalysis:
    """Analyze a selector, or take its analysis; in strict mode, raise on
    type errors.

    This is the subscribe-time hook: a strict broker rejects ill-typed
    selectors exactly like ``javax.jms.InvalidSelectorException``, with
    the rendered span diagnostics as the reason.
    """
    analysis = selector if isinstance(selector, SelectorAnalysis) else analyze(selector)
    if strict and analysis.errors:
        raise InvalidSelectorError(
            "selector failed type checking\n"
            + render_diagnostics(analysis.errors, analysis.text)
        )
    return analysis
