"""Property-based tests for the selector language (hypothesis)."""

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
from repro.broker.selector.evaluator import UNKNOWN

# ----------------------------------------------------------------------
# AST generators
# ----------------------------------------------------------------------
_ident = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6).filter(
    lambda s: s not in {"and", "or", "not", "between", "in", "like", "escape", "is", "null", "true", "false"}
)
_string_lit = st.text(
    alphabet=string.ascii_letters + string.digits + " '%_", max_size=8
)
# Non-negative only: the parser never produces a negative Literal (a
# leading '-' parses as unary minus), so negative literals cannot be a
# structural round-trip fixed point.
_number = st.one_of(
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=0, max_value=1e3, allow_nan=False, allow_infinity=False),
)


def _arith(draw_depth):
    leaf = st.one_of(
        _number.map(Literal),
        _ident.map(Identifier),
    )
    return st.recursive(
        leaf,
        lambda children: st.builds(
            Binary,
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children,
        ),
        max_leaves=4,
    )


_predicate = st.one_of(
    st.builds(Binary, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), _arith(2), _arith(2)),
    st.builds(Between, _ident.map(Identifier), _number.map(Literal), _number.map(Literal), st.booleans()),
    st.builds(
        InList,
        _ident.map(Identifier),
        st.lists(_string_lit, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.builds(Like, _ident.map(Identifier), _string_lit, st.none(), st.booleans()),
    st.builds(IsNull, _ident.map(Identifier), st.booleans()),
)

_condition = st.recursive(
    _predicate,
    lambda children: st.one_of(
        st.builds(Binary, st.sampled_from(["AND", "OR"]), children, children),
        st.builds(Unary, st.just("NOT"), children),
    ),
    max_leaves=6,
)

_prop_value = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
    # NaN compares UNKNOWN like NULL; ±inf are numbers (and make NaN: inf - inf).
    st.sampled_from((float("nan"), float("inf"), float("-inf"))),
    st.text(alphabet=string.ascii_lowercase, max_size=5),
    st.booleans(),
)
_message = st.dictionaries(_ident, _prop_value, max_size=5).map(
    lambda props: Message(topic="t", properties=props)
)


class TestRoundTripProperty:
    @given(ast=_condition)
    @settings(max_examples=200, deadline=None)
    def test_unparse_reparse_identity(self, ast: Expr):
        """Every generated AST unparses to text that parses back equal."""
        assert parse(str(ast)) == ast

    @given(ast=_condition, message=_message)
    @settings(max_examples=200, deadline=None)
    def test_unparse_preserves_semantics(self, ast: Expr, message: Message):
        """Unparsing must not change the evaluation result."""
        assert evaluate(parse(str(ast)), message) is evaluate(ast, message)


class TestEvaluationProperties:
    @given(ast=_condition, message=_message)
    @settings(max_examples=200, deadline=None)
    def test_evaluation_is_three_valued(self, ast: Expr, message: Message):
        result = evaluate(ast, message)
        assert result is True or result is False or result is UNKNOWN

    @given(ast=_condition, message=_message)
    @settings(max_examples=150, deadline=None)
    def test_double_negation(self, ast: Expr, message: Message):
        """NOT NOT x has the same truth value as x (in Kleene logic) when
        x is a condition."""
        inner = evaluate(ast, message)
        double = evaluate(Unary("NOT", Unary("NOT", ast)), message)
        assert double is inner

    @given(ast=_condition, message=_message)
    @settings(max_examples=150, deadline=None)
    def test_excluded_middle_weakened(self, ast: Expr, message: Message):
        """x OR NOT x is never False in three-valued logic."""
        result = evaluate(Binary("OR", ast, Unary("NOT", ast)), message)
        assert result is not False

    @given(ast=_condition, message=_message)
    @settings(max_examples=150, deadline=None)
    def test_contradiction_never_true(self, ast: Expr, message: Message):
        """x AND NOT x is never True."""
        result = evaluate(Binary("AND", ast, Unary("NOT", ast)), message)
        assert result is not True

    @given(a=_condition, b=_condition, message=_message)
    @settings(max_examples=100, deadline=None)
    def test_and_or_commutative(self, a: Expr, b: Expr, message: Message):
        assert evaluate(Binary("AND", a, b), message) is evaluate(
            Binary("AND", b, a), message
        )
        assert evaluate(Binary("OR", a, b), message) is evaluate(
            Binary("OR", b, a), message
        )

    @given(message=_message, ident=_ident)
    @settings(max_examples=100, deadline=None)
    def test_is_null_is_two_valued(self, message: Message, ident: str):
        result = evaluate(IsNull(Identifier(ident)), message)
        assert result is (ident not in message.properties)
