"""Compiled selector closures: unit semantics + equivalence with the interpreter.

The compiler's contract is *verdict identity with the tree walker* under
SQL-92 three-valued logic: for every AST and every message — including
messages with absent properties (NULL) and bool-masquerading-as-number
values — ``CompiledSelector.evaluate`` returns the same True/False/UNKNOWN
as :func:`repro.broker.selector.evaluator.evaluate`, and ``matches`` the
same two-valued verdict.  The hypothesis suite below drives randomized
ASTs and sparse messages through both paths — NaN and ±inf property
values included, and with every warning the generated source could
raise turned into an error.
"""

import string
import warnings
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker import (
    CorrelationIdFilter,
    MatchAllFilter,
    Message,
    MessageFilter,
    PropertyFilter,
)
from repro.broker.selector import (
    SCAN_BLOCK,
    Between,
    Binary,
    CompiledSelector,
    Expr,
    Identifier,
    InList,
    IsNull,
    Like,
    Literal,
    Selector,
    Unary,
    compile_ast,
    compile_scan,
    compiled_for_ast,
    evaluate,
    parse,
)
from repro.broker.selector.analysis import simplify
from repro.broker.selector.evaluator import UNKNOWN
from repro.core.params import FilterType


def strictly(build, *args):
    """``build(*args)`` with warnings as errors: generated source that
    makes CPython warn (``3 is False``) is source that does not compile
    under ``-W error``, for a selector the interpreter accepts."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build(*args)


def verdicts(text: str, message: Message):
    """(interpreter, compiled) three-valued results for a selector text."""
    ast = parse(text)
    return evaluate(ast, message), strictly(compile_ast, ast).evaluate(message)


MESSAGES = (
    Message(topic="t", properties={"price": 120.0, "region": "EU", "qty": 7}),
    Message(topic="t", properties={"price": 10, "region": "US", "note": "x"}),
    Message(topic="t", properties={"flag": True, "price": 1}),
    Message(topic="t", properties={}),  # everything absent -> NULL paths
    Message(topic="t", properties={"sym": "A_B"}, priority=9, correlation_id="c-1"),
)

SELECTORS = (
    "price > 100",
    "price BETWEEN 50 AND 150",
    "price NOT BETWEEN 50 AND 150",
    "region = 'EU' AND price > 10",
    "region IN ('EU', 'US')",
    "region NOT IN ('EU', 'US')",
    "sym LIKE 'A!_%' ESCAPE '!'",
    "sym NOT LIKE 'A%'",
    "note IS NULL",
    "note IS NOT NULL",
    "price / qty > 10",
    "price / 0 > 1",  # division by zero -> UNKNOWN
    "flag",
    "flag = TRUE",
    "NOT (price > 100 OR qty < 10)",
    "JMSPriority >= 5",
    "JMSCorrelationID = 'c-1'",
    "price + qty * 2 <= 200",
    "(price > 100) AND 3",  # a literal as a condition is never TRUE or FALSE
    "'x' OR price > 100",
    "NOT 7",
    "(price > 100) = flag",  # a condition as a value operand
    "(price > 100) = TRUE",
    "-price < -50",
    "qty BETWEEN +qty AND price",
    "price < 1e999",  # parses to inf, which has no source spelling
)


class TestCompiledSemantics:
    @pytest.mark.parametrize("text", SELECTORS)
    @pytest.mark.parametrize("message", MESSAGES, ids=range(len(MESSAGES)))
    def test_verdict_identity_on_corpus(self, text, message):
        interpreted, compiled = verdicts(text, message)
        assert compiled is interpreted

    def test_bool_is_not_a_number(self):
        """True must not satisfy numeric comparisons (the int-subclass trap)."""
        message = Message(topic="t", properties={"flag": True})
        assert compile_ast(parse("flag > 0")).evaluate(message) is UNKNOWN
        assert compile_ast(parse("flag = 1")).evaluate(message) is UNKNOWN
        assert compile_ast(parse("flag = TRUE")).evaluate(message) is True

    def test_exact_integer_division_stays_integral(self):
        message = Message(topic="t", properties={"a": 10, "b": 5})
        assert compile_ast(parse("a / b = 2")).evaluate(message) is True
        assert compile_ast(parse("a / 4 = 2.5")).evaluate(message) is True

    def test_header_null_correlation_id(self):
        """An unset JMSCorrelationID is NULL, not a missing identifier."""
        message = Message(topic="t")
        assert compile_ast(parse("JMSCorrelationID = 'x'")).evaluate(message) is UNKNOWN
        assert compile_ast(parse("JMSCorrelationID IS NULL")).evaluate(message) is True

    def test_compiled_source_is_inspectable(self):
        compiled = compile_ast(parse("price > 100 AND region = 'EU'"))
        assert isinstance(compiled, CompiledSelector)
        assert "def _selector(message):" in compiled.source

    def test_nan_is_no_value_one_can_order(self):
        """Regression: ``NOT (price < 513)`` was TRUE on the raw AST and
        FALSE on the canonical ``price >= 513`` for a NaN price, and
        ``matches`` gave the canonical answer.  NaN compares UNKNOWN."""
        nan = Message(topic="t", properties={"price": float("nan"), "qty": 0.0})
        selector = Selector("NOT (price < 513)")
        assert str(selector.canonical) == "(price >= 513)"
        for ast in (selector.ast, selector.canonical):
            assert evaluate(ast, nan) is UNKNOWN
            assert compile_ast(ast).evaluate(nan) is UNKNOWN
        assert not selector.matches(nan)
        # ... and so does a NaN that arithmetic made, where it is compared.
        inf = Message(topic="t", properties={"price": float("inf"), "qty": 0.0})
        for text in ("price * qty <> 1", "NOT (price - price = 0)", "price / price > 0"):
            interpreted, compiled = verdicts(text, inf)
            assert compiled is interpreted is UNKNOWN
        assert verdicts("price > 513", inf) == (True, True)

    def test_a_top_level_value_is_returned_as_the_interpreter_returns_it(self):
        message = Message(topic="t", properties={"a": 4, "s": "x", "n": float("inf")})
        for text, expected in (("a + 1", 5), ("s", "x"), ("-a", -4), ("a / 0", UNKNOWN),
                               ("a + s", UNKNOWN), ("missing", UNKNOWN), ("7", 7)):
            compiled = compile_ast(parse(text))
            assert compiled.evaluate(message) == evaluate(parse(text), message) == expected
            assert not compiled.matches(message)
        made_nan = compile_ast(parse("n - n")).evaluate(message)
        assert made_nan != made_nan and evaluate(parse("n - n"), message) != made_nan

    def test_compiled_for_ast_caches_per_ast(self):
        ast = simplify(parse("price > 100"))
        assert compiled_for_ast(ast) is compiled_for_ast(ast)

    def test_cache_distinguishes_literal_types(self):
        """Regression: ``Literal(True) == Literal(1) == Literal(1.0)`` under
        dataclass equality, but the three selectors compile differently —
        the cache must never hand ``a = TRUE`` the matcher for ``a = 1``."""
        as_int = compiled_for_ast(parse("a = 1"))
        as_bool = compiled_for_ast(parse("a = TRUE"))
        as_float = compiled_for_ast(parse("a = 1.0"))
        message = Message(topic="t", properties={"a": True})
        assert as_bool.evaluate(message) is True
        assert as_int.evaluate(message) is UNKNOWN
        assert as_float.evaluate(message) is UNKNOWN

    def test_invalid_like_pattern_raises_at_compile_time(self):
        """The interpreter raises at evaluation; the compiler moves the
        error to compile time — invalid patterns never produce a matcher."""
        from repro.broker.errors import InvalidSelectorError

        with pytest.raises(InvalidSelectorError):
            compile_ast(Like(Identifier("a"), "!", "!", False))


# ----------------------------------------------------------------------
# Randomized equivalence (mirrors the simplify property suite's grammar)
# ----------------------------------------------------------------------
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


def _conditions(identifier):
    """Random condition ASTs over the given identifier-node strategy."""
    arith = st.recursive(
        st.one_of(_number.map(Literal), identifier),
        lambda children: st.one_of(
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(Unary, st.sampled_from(["+", "-"]), children),
        ),
        max_leaves=4,
    )
    comparison = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    predicate = st.one_of(
        st.builds(Binary, comparison, arith, arith),
        st.builds(Between, identifier, arith, arith, st.booleans()),
        st.builds(Between, identifier, identifier, identifier, st.booleans()),
        st.builds(
            InList,
            identifier,
            st.lists(_string_lit, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(
            Like,
            identifier,
            _string_lit,
            st.one_of(st.none(), st.just("!")),
            st.booleans(),
        ).filter(lambda e: _escape_valid(e.pattern, e.escape)),
        st.builds(IsNull, identifier, st.booleans()),
        st.booleans().map(Literal),
        identifier,
    )
    # A value where a condition belongs — never TRUE, never FALSE — as an
    # AND/OR/NOT operand (at the top it would be returned as a value,
    # which the identity assertions below do not compare).
    value = st.one_of(
        st.one_of(_number, _string_lit).map(Literal),
        st.builds(Unary, st.sampled_from(["+", "-"]), identifier),
    )
    return st.recursive(
        predicate,
        lambda children: st.one_of(
            st.builds(
                Binary,
                st.sampled_from(["AND", "OR"]),
                st.one_of(children, value),
                st.one_of(children, value),
            ),
            st.builds(Unary, st.just("NOT"), st.one_of(children, value)),
            # ... and a condition where a value belongs: ``(a > 1) = flag``.
            st.builds(
                Binary,
                comparison,
                children,
                st.one_of(children, st.booleans().map(Literal), identifier),
            ),
        ),
        max_leaves=8,
    )


_condition = _conditions(_ident.map(Identifier))

_prop_value = st.one_of(
    st.integers(min_value=-10, max_value=60),
    st.floats(min_value=-10, max_value=60),
    st.sampled_from((float("nan"), float("inf"), float("-inf"))),
    st.text(alphabet=string.ascii_lowercase + "%_", max_size=4),
    st.booleans(),
)
# Small dictionaries keep most identifiers ABSENT so NULL/UNKNOWN
# propagation — the classic compiled-short-circuit bug surface — dominates.
_sparse_message = st.dictionaries(_ident, _prop_value, max_size=2).map(
    lambda props: Message(topic="t", properties=props)
)


# ----------------------------------------------------------------------
# Scan kernel: a run of filters fused into generated blocks
# ----------------------------------------------------------------------
class _AstFilter(MessageFilter):
    """A filter that *is* one raw AST: the kernel inlines it, the oracle
    walks it with the interpreter."""

    filter_type = FilterType.APP_PROPERTY

    def __init__(self, ast: Expr):
        self.ast = ast

    def matches(self, message: Message) -> bool:
        return evaluate(self.ast, message) is True

    def inline_ast(self):
        return self.ast


class _CalledAstFilter(_AstFilter):
    """The same AST filter offered for calling, not inlining: the kernel
    calls its ``matches``, which walks the tree."""

    def inline_ast(self):
        return None


class _PriorityFilter(MessageFilter):
    """A user filter the kernel knows nothing about (called, not inlined)."""

    filter_type = FilterType.CORRELATION_ID

    def __init__(self, floor: int):
        self.floor = floor

    def matches(self, message: Message) -> bool:
        return message.priority >= self.floor


class _Boom(Exception):
    pass


class _RaisingFilter(_PriorityFilter):
    def matches(self, message: Message) -> bool:
        raise _Boom(self.floor)


def _interpreted(filter_: MessageFilter, message: Message) -> bool:
    """The oracle: never the per-selector closure, never the kernel."""
    if isinstance(filter_, PropertyFilter):
        return evaluate(filter_.selector.ast, message) is True
    return filter_.is_trivial or filter_.matches(message)


def _assert_scan_is_the_interpreter(filters, message: Message) -> None:
    kernel = strictly(compile_scan, filters)
    assert kernel.evaluated == sum(not f.is_trivial for f in filters)
    if any(isinstance(f, _RaisingFilter) for f in filters):
        with pytest.raises(_Boom):
            kernel(message)
        return
    assert kernel(message) == [
        i for i, f in enumerate(filters) if _interpreted(f, message)
    ]
    assert kernel.block_calls == -(-len(filters) // SCAN_BLOCK)


_SCAN_NAMES = ("a", "b", "price", "region", "qty", "sym", "note", "flag")
_scan_identifier = st.sampled_from(
    _SCAN_NAMES[:2] + ("JMSPriority", "JMSCorrelationID")
).map(Identifier)
_scan_condition = _conditions(_scan_identifier)
_scan_message = st.builds(
    Message,
    topic=st.just("t"),
    properties=st.dictionaries(st.sampled_from(_SCAN_NAMES), _prop_value, max_size=4),
    priority=st.integers(min_value=0, max_value=9),
    correlation_id=st.one_of(st.none(), st.sampled_from(("7", "c-1", "sensor-4", "x"))),
)
_opaque_filter = st.one_of(
    st.just(MatchAllFilter()),
    st.sampled_from(("7", "[5;9]", "sensor-*", "c-1")).map(CorrelationIdFilter),
    st.integers(min_value=0, max_value=9).map(_PriorityFilter),
    st.sampled_from(SELECTORS).map(PropertyFilter),
)


@st.composite
def _runs(draw, unit, max_distinct: int = 6):
    """0-70 filters drawn (with repeats) from a few distinct ones, the
    length biased onto the block boundaries."""
    pool = draw(st.lists(unit, min_size=1, max_size=max_distinct))
    edges = (0, 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK, 2 * SCAN_BLOCK + 1)
    size = draw(st.one_of(st.sampled_from(edges), st.integers(min_value=0, max_value=70)))
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=size, max_size=size)
    )
    return [pool[pick] for pick in picks]


class TestCompiledEquivalence:
    @given(ast=_condition, message=_sparse_message)
    @settings(max_examples=300, deadline=None)
    def test_three_valued_identity_on_raw_ast(self, ast: Expr, message: Message):
        assert strictly(compile_ast, ast).evaluate(message) is evaluate(ast, message)

    @given(ast=_condition, message=_sparse_message)
    @settings(max_examples=300, deadline=None)
    def test_three_valued_identity_on_canonical_ast(self, ast: Expr, message: Message):
        canonical = simplify(ast)
        assert strictly(compiled_for_ast, canonical).evaluate(message) is evaluate(
            canonical, message
        )

    @given(ast=_condition, message=_sparse_message)
    @settings(max_examples=200, deadline=None)
    def test_match_verdict_identity(self, ast: Expr, message: Message):
        assert strictly(compile_ast, ast).matches(message) == (evaluate(ast, message) is True)

    @given(filters=_runs(_scan_condition.map(_AstFilter)), message=_scan_message)
    @settings(max_examples=150, deadline=None)
    def test_scan_of_inlined_asts_is_the_interpreter(self, filters, message: Message):
        _assert_scan_is_the_interpreter(filters, message)

    @given(
        filters=_runs(st.one_of(_scan_condition.map(_AstFilter), _opaque_filter), 10),
        message=_scan_message,
    )
    @settings(max_examples=150, deadline=None)
    def test_scan_of_mixed_kinds_is_the_interpreter(self, filters, message: Message):
        _assert_scan_is_the_interpreter(filters, message)

    @given(
        filters=_runs(
            st.one_of(_opaque_filter, st.integers(min_value=0, max_value=9).map(_RaisingFilter)),
            10,
        ),
        message=_scan_message,
    )
    @settings(max_examples=50, deadline=None)
    def test_scan_propagates_what_a_user_filter_raises(self, filters, message: Message):
        _assert_scan_is_the_interpreter(filters, message)

    @given(
        filters=_runs(st.one_of(_scan_condition.map(_CalledAstFilter), _opaque_filter), 10),
        message=_scan_message,
    )
    @settings(max_examples=50, deadline=None)
    def test_scan_that_calls_ast_filters_is_the_interpreter(self, filters, message: Message):
        _assert_scan_is_the_interpreter(filters, message)


# ----------------------------------------------------------------------
# Depth: generated nesting must not grow with the length of a selector
# ----------------------------------------------------------------------
def _nesting(source: str) -> int:
    """Deepest parenthesis nesting of ``source`` (no quoted parentheses
    occur in the selectors below)."""
    deepest = depth = 0
    for char in source:
        depth += (char == "(") - (char == ")")
        deepest = max(deepest, depth)
    return deepest


def _leaf(i: int) -> Expr:
    """Distinct predicates that are TRUE, FALSE and UNKNOWN in turn on
    ``{"a": i}``-style messages, so a long chain is decided far in."""
    return (
        Binary("=", Identifier("a"), Literal(i)),
        Binary(">", Identifier("b"), Literal(i)),
        Like(Identifier("c"), f"x{i}%", None, bool(i % 2)),
    )[i % 3]


_DEEP = {
    # The parser builds `p0 OR p1 OR ...` left-deep in a loop; 300 terms.
    "left-deep OR chain": reduce(lambda l, r: Binary("OR", l, r), map(_leaf, range(300))),
    "right-nested AND/OR": reduce(
        lambda r, i: Binary("AND" if i % 5 else "OR", _leaf(i), r), range(100), _leaf(100)
    ),
    "NOT/AND alternation": reduce(
        lambda r, i: Unary("NOT", Binary("AND", _leaf(i), r)), range(100), _leaf(100)
    ),
    "NOT/OR over comparisons of conditions": reduce(
        lambda r, i: Unary("NOT", Binary("OR", Binary("=", _leaf(i), r), _leaf(i + 1))),
        range(40),
        _leaf(40),
    ),
}
_DEEP_MESSAGES = [
    Message(topic="t", properties=properties)
    for properties in (
        {},
        {"a": 299},
        {"a": 0, "b": 1000, "c": "x5"},
        {"a": 99, "b": -1, "c": "x2y"},
        {"a": "str", "b": float("nan"), "c": 7},
        {"b": 50, "c": "x100"},
        {"a": 3, "b": 3, "c": "x3"},
    )
]


class TestLoweringDepth:
    """All four compile at the parent commit too (through ``if``/``elif``
    ladders whose nesting is indentation); an expression lowering must
    flatten chains and spill, or CPython refuses the source outright
    (``too many nested parentheses``).  Deeper right nests die in the
    *parser* (``RecursionError`` around 150) and are out of scope."""

    @pytest.mark.parametrize("shape", _DEEP)
    def test_deep_selectors_compile_and_agree_with_the_interpreter(self, shape):
        ast = _DEEP[shape]
        compiled = strictly(compile_ast, ast)
        kernel = strictly(compile_scan, [_AstFilter(ast), _AstFilter(Unary("NOT", ast))])
        verdicts = set()
        for message in _DEEP_MESSAGES:
            expected = evaluate(ast, message)
            verdicts.add(expected)
            assert compiled.evaluate(message) is expected
            assert compiled.matches(message) is (expected is True)
            assert kernel(message) == [
                i for i, verdict in enumerate((True, False)) if expected is verdict
            ]
        assert len(verdicts) >= 2  # the messages do decide the chain differently
        assert _nesting(compiled.source) <= 16

    def test_a_same_operator_chain_is_flat_whatever_its_length(self):
        short, long = (
            compile_ast(reduce(lambda l, r: Binary("OR", l, r), map(_leaf, range(n))))
            for n in (6, 300)
        )
        assert _nesting(long.source) == _nesting(short.source)
        assert not any(line.lstrip().startswith("t") for line in long.source.splitlines())

    def test_a_guard_repeated_inside_one_and_chain_is_tested_once(self):
        source = compile_ast(parse("a > 1 AND a < 9 AND a <> 5")).source
        matches = source[source.index("def _matches") :]
        assert matches.splitlines()[-1] == "    return n_v0 and v0 > 1 and v0 < 9 and v0 != 5"
