"""Property-based proof obligations of the simplifier, plus 3VL edge cases.

The rewriter's contract is *evaluate identity*: for every selector ``e``
and message ``m`` (including messages with missing/NULL properties),
``evaluate(simplify(e), m) is evaluate(e, m)`` — the same three-valued
result, not merely the same match verdict.  Canonicalization must also be
idempotent and survive an unparse/reparse round trip.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.broker import Message
from repro.broker.selector import (
    Between,
    Binary,
    Expr,
    Identifier,
    InList,
    IsNull,
    Like,
    Literal,
    Unary,
    evaluate,
    parse,
)
from repro.broker.selector.analysis import simplify
from repro.broker.selector.evaluator import UNKNOWN

_KEYWORDS = {
    "and", "or", "not", "between", "in", "like", "escape", "is", "null",
    "true", "false",
}
_ident = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4).filter(
    lambda s: s not in _KEYWORDS
)
_string_lit = st.text(alphabet=string.ascii_letters + " '%_!", max_size=6)
_number = st.one_of(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0, max_value=50, allow_nan=False, allow_infinity=False),
)

def _escape_valid(pattern: str, escape) -> bool:
    """Reject LIKE patterns whose final escape character is dangling —
    the evaluator (rightly) raises on those instead of evaluating."""
    if escape is None:
        return True
    i = 0
    while i < len(pattern):
        if pattern[i] == escape:
            if i + 1 >= len(pattern):
                return False
            i += 2
        else:
            i += 1
    return True


_arith = st.recursive(
    st.one_of(_number.map(Literal), _ident.map(Identifier)),
    lambda children: st.builds(
        Binary, st.sampled_from(["+", "-", "*", "/"]), children, children
    ),
    max_leaves=4,
)

_predicate = st.one_of(
    st.builds(
        Binary, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), _arith, _arith
    ),
    st.builds(
        Between, _ident.map(Identifier), _arith, _arith, st.booleans()
    ),
    st.builds(
        InList,
        _ident.map(Identifier),
        st.lists(_string_lit, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.builds(
        Like,
        _ident.map(Identifier),
        _string_lit,
        st.one_of(st.none(), st.just("!")),
        st.booleans(),
    ).filter(lambda e: _escape_valid(e.pattern, e.escape)),
    st.builds(IsNull, _ident.map(Identifier), st.booleans()),
    st.booleans().map(Literal),
    _ident.map(Identifier),  # a bare (possibly boolean) property
)

_condition = st.recursive(
    _predicate,
    lambda children: st.one_of(
        st.builds(Binary, st.sampled_from(["AND", "OR"]), children, children),
        st.builds(Unary, st.just("NOT"), children),
    ),
    max_leaves=8,
)

_prop_value = st.one_of(
    st.integers(min_value=-10, max_value=60),
    st.floats(min_value=-10, max_value=60),
    # NaN compares UNKNOWN like NULL; ±inf are numbers (and make NaN: inf - inf).
    st.sampled_from((float("nan"), float("inf"), float("-inf"))),
    st.text(alphabet=string.ascii_lowercase + "%_", max_size=4),
    st.booleans(),
)
# max_size=2 keeps most generated identifiers ABSENT, so NULL/UNKNOWN
# paths dominate — exactly the cases naive boolean rewrites get wrong.
_sparse_message = st.dictionaries(_ident, _prop_value, max_size=2).map(
    lambda props: Message(topic="t", properties=props)
)


def _safe_simplify(ast: Expr) -> Expr:
    return simplify(ast)


class TestSimplifyProperties:
    @given(ast=_condition, message=_sparse_message)
    @settings(max_examples=300, deadline=None)
    def test_simplify_preserves_evaluation(self, ast: Expr, message: Message):
        """The canonical form evaluates identically — True/False/UNKNOWN."""
        assert evaluate(simplify(ast), message) is evaluate(ast, message)

    @given(ast=_condition)
    @settings(max_examples=300, deadline=None)
    def test_canonicalization_idempotent(self, ast: Expr):
        canonical = simplify(ast)
        assert simplify(canonical) == canonical

    @given(ast=_condition)
    @settings(max_examples=200, deadline=None)
    def test_canonical_text_reparses_to_canonical_ast(self, ast: Expr):
        """Canonical text is a stable sharing key across parse round trips."""
        canonical = simplify(ast)
        assert simplify(parse(str(canonical))) == canonical

    @given(ast=_condition, message=_sparse_message)
    @settings(max_examples=200, deadline=None)
    def test_match_verdict_unchanged(self, ast: Expr, message: Message):
        assert (evaluate(simplify(ast), message) is True) == (
            evaluate(ast, message) is True
        )


class TestThreeValuedEdgeCases:
    def test_not_is_null_of_missing_property(self):
        """`NOT (x IS NULL)` is two-valued: False when x is absent."""
        absent = Message(topic="t", properties={})
        present = Message(topic="t", properties={"x": 1})
        expr = parse("NOT (x IS NULL)")
        assert evaluate(expr, absent) is False
        assert evaluate(expr, present) is True
        # ... and canonicalizes to the IS NOT NULL form
        assert simplify(expr) == parse("x IS NOT NULL")

    def test_comparison_against_missing_property_is_unknown(self):
        absent = Message(topic="t", properties={})
        for text in ("x > 5", "x = 'a'", "x <> 'a'", "x BETWEEN 1 AND 2",
                     "x IN ('a')", "x LIKE 'a%'", "x NOT LIKE 'a%'"):
            assert evaluate(parse(text), absent) is UNKNOWN
            assert evaluate(simplify(parse(text)), absent) is UNKNOWN

    def test_negated_comparison_on_missing_property_stays_unknown(self):
        """NOT propagates UNKNOWN — it must not turn it into True."""
        absent = Message(topic="t", properties={})
        expr = parse("NOT (x > 5)")
        assert evaluate(expr, absent) is UNKNOWN
        assert evaluate(simplify(expr), absent) is UNKNOWN
        assert simplify(expr) == parse("x <= 5")

    def test_unknown_and_false_is_false(self):
        message = Message(topic="t", properties={"y": 1})
        assert evaluate(parse("x > 5 AND y = 2"), message) is False
        assert evaluate(parse("x > 5 OR y = 1"), message) is True
        assert evaluate(parse("x > 5 AND y = 1"), message) is UNKNOWN

    def test_like_with_escaped_wildcards(self):
        expr = parse("x LIKE 'a!%b' ESCAPE '!'")
        assert evaluate(expr, Message(topic="t", properties={"x": "a%b"})) is True
        assert evaluate(expr, Message(topic="t", properties={"x": "axb"})) is False
        # the escaped pattern has no live wildcard: it lowers to equality
        assert simplify(expr) == parse("x = 'a%b'")

    def test_like_with_live_and_escaped_wildcards(self):
        expr = parse("x LIKE 'a!%%' ESCAPE '!'")
        matches = Message(topic="t", properties={"x": "a%whatever"})
        misses = Message(topic="t", properties={"x": "ab"})
        assert evaluate(expr, matches) is True
        assert evaluate(expr, misses) is False
        # a live '%' remains: must NOT lower to equality
        assert simplify(expr) == expr

    def test_like_escaped_underscore(self):
        expr = parse("x LIKE 'a!_b' ESCAPE '!'")
        assert evaluate(expr, Message(topic="t", properties={"x": "a_b"})) is True
        assert evaluate(expr, Message(topic="t", properties={"x": "aXb"})) is False

    def test_like_on_non_string_value_is_unknown(self):
        message = Message(topic="t", properties={"x": 42})
        expr = parse("x LIKE '4%'")
        assert evaluate(expr, message) is UNKNOWN
        assert evaluate(simplify(expr), message) is UNKNOWN

    def test_bare_identifier_double_negation_not_collapsed(self):
        """NOT NOT x != x when x holds a non-boolean: the NOTs coerce."""
        expr = parse("NOT NOT x")
        message = Message(topic="t", properties={"x": 5})
        assert evaluate(parse("x"), message) == 5
        assert evaluate(expr, message) is UNKNOWN
        assert evaluate(simplify(expr), message) is UNKNOWN

    def test_true_and_bare_identifier_not_dropped(self):
        """`TRUE AND x` coerces x to three-valued; simplify must keep that."""
        expr = parse("TRUE AND x")
        message = Message(topic="t", properties={"x": 5})
        assert evaluate(expr, message) is UNKNOWN
        assert evaluate(simplify(expr), message) is UNKNOWN
