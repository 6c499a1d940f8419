"""Tests for the selector static analyzer: types, satisfiability, canon."""

from unittest import mock

import pytest

from repro.broker import Broker, InvalidSelectorError, Message, PropertyFilter
from repro.broker.selector import Selector, parse
from repro.broker.selector import analysis as analysis_module
from repro.broker.selector.analysis import (
    SelectorType,
    always_matches,
    analyze,
    canonical_text,
    check_selector,
    infer_type,
    never_matches,
    simplify,
    type_check,
)
from repro.diagnostics import render_diagnostic


def codes(selector):
    return [d.code for d in analyze(selector).diagnostics]


class TestTypeChecker:
    @pytest.mark.parametrize(
        "selector",
        [
            "price > 10",
            "region = 'EU' AND price BETWEEN 10 AND 20",
            "JMSPriority >= 5",
            "JMSCorrelationID LIKE 'sensor-%'",
            "flag",  # dynamically typed property may hold a boolean
            "NOT flag",
            "price = 'cheap'",  # legal: the property may hold a string
            "x IS NULL OR x > 0",
            "a + b * 2 < c - 1",
        ],
    )
    def test_well_typed_selectors_accepted(self, selector):
        assert analyze(selector).errors == ()

    @pytest.mark.parametrize(
        "selector, code",
        [
            ("17 = 'cheap'", "E_TYPE_COMPARISON"),
            ("TRUE = 1", "E_TYPE_COMPARISON"),
            ("'a' > 5", "E_TYPE_ORDERING"),
            ("JMSDestination >= 3", "E_TYPE_ORDERING"),
            ("price + 1", "E_TYPE_CONDITION"),
            ("'text'", "E_TYPE_CONDITION"),
            ("NOT (price + 1)", "E_TYPE_NOT"),
            ("'a' AND TRUE", "E_TYPE_LOGIC"),
            ("price > 1 OR 5", "E_TYPE_LOGIC"),
            ("'a' + 1 = 2", "E_TYPE_ARITH"),
            ("JMSDeliveryMode * 2 = 4", "E_TYPE_ARITH"),
            ("x BETWEEN 'a' AND 'b'", "E_TYPE_BETWEEN"),
            ("JMSDeliveryMode BETWEEN 1 AND 2", "E_TYPE_BETWEEN"),
            ("JMSPriority IN ('a', 'b')", "E_TYPE_IN"),
            ("JMSPriority LIKE 'x%'", "E_TYPE_LIKE"),
            ("-'abc' = 1", "E_TYPE_SIGN"),
            ("x LIKE 'abc!' ESCAPE '!'", "E_LIKE_ESCAPE"),
        ],
    )
    def test_ill_typed_selectors_rejected(self, selector, code):
        assert code in codes(selector)

    def test_every_error_carries_a_span(self):
        for selector in ["17 = 'cheap'", "JMSPriority LIKE 'x%'", "'a' > 5"]:
            analysis = analyze(selector)
            assert analysis.errors
            for diagnostic in analysis.errors:
                start, end = diagnostic.span
                assert 0 <= start < end <= len(selector)

    def test_span_points_at_offending_fragment(self):
        analysis = analyze("price = 17 AND JMSPriority LIKE 'x%'")
        (error,) = analysis.errors
        start, end = error.span
        assert analysis.text[start:end] == "JMSPriority"

    def test_rendered_diagnostic_underlines_source(self):
        analysis = analyze("JMSPriority LIKE 'x%'")
        rendered = render_diagnostic(analysis.errors[0], analysis.text)
        assert "JMSPriority LIKE 'x%'" in rendered
        assert "^^^^^^^^^^^" in rendered

    def test_identifier_type_conflict_warns(self):
        analysis = analyze("price > 5 AND price LIKE 'a%'")
        assert "W_TYPE_CONFLICT" in [d.code for d in analysis.warnings]
        assert not analysis.errors  # a warning, not a rejection

    def test_infer_type(self):
        assert infer_type(parse("1 + 2")) is SelectorType.NUMERIC
        assert infer_type(parse("'a'")) is SelectorType.STRING
        assert infer_type(parse("a > 1")) is SelectorType.BOOLEAN
        assert infer_type(parse("someprop")) is SelectorType.ANY
        assert infer_type(parse("JMSPriority")) is SelectorType.NUMERIC
        assert infer_type(parse("JMSDestination")) is SelectorType.STRING

    def test_type_check_returns_empty_for_clean_selector(self):
        assert type_check(parse("a = 1 AND b LIKE 'x%'")) == []


class TestSatisfiability:
    @pytest.mark.parametrize(
        "selector",
        [
            "price > 10 AND price < 5",
            "x = 1 AND x = 2",
            "x = 'a' AND x = 'b'",
            "x = 'a' AND x > 5",  # string pin vs numeric bound
            "x = 5 AND x <> 5",
            "x > 5 AND x <= 5",
            "x >= 5 AND x < 5",
            "x IS NULL AND x = 5",
            "x IS NULL AND x IS NOT NULL",
            "x BETWEEN 10 AND 5",
            "x LIKE 'a%' AND x NOT LIKE 'a%'",
            "x IN ('a') AND x NOT IN ('a')",
            "FALSE",
            "2 = 3",
            "17 = 'cheap'",  # ill-typed comparison can never be TRUE
            "(x > 10 AND x < 5) OR 1 > 2",  # all OR branches dead
            "a = 1 AND (x > 10 AND x < 5)",  # dead conjunct kills the AND
        ],
    )
    def test_dead_selectors_detected(self, selector):
        assert never_matches(parse(selector))
        assert analyze(selector).unsatisfiable

    @pytest.mark.parametrize(
        "selector",
        [
            "price > 5",
            "x = 1 OR x = 2",
            "x >= 5 AND x <= 5",
            "x > 10 OR x < 5",
            "x IS NOT NULL AND x = 5",
            "x BETWEEN 5 AND 5",
            "x <> 1 AND x <> 2",
        ],
    )
    def test_satisfiable_selectors_not_flagged(self, selector):
        assert not never_matches(parse(selector))
        assert not analyze(selector).unsatisfiable

    @pytest.mark.parametrize(
        "selector",
        [
            "x = x OR TRUE",
            "TRUE",
            "NOT FALSE",
            "1 < 2",
            "a IS NULL OR a IS NOT NULL",
            "TRUE OR price > 10",
        ],
    )
    def test_tautologies_detected(self, selector):
        assert always_matches(parse(selector))
        assert analyze(selector).tautological

    @pytest.mark.parametrize("selector", ["x = x", "x = 1 OR x <> 1", "price > 0"])
    def test_non_tautologies_not_flagged(self, selector):
        # `x = x` is UNKNOWN (not TRUE) when x is NULL, so it is no tautology
        assert not always_matches(parse(selector))

    def test_detector_is_sound_on_the_flagged_examples(self):
        """A selector flagged dead must really reject every probe message."""
        probes = [
            Message(topic="t", properties=props)
            for props in ({}, {"x": 7}, {"x": 5}, {"x": "a"}, {"price": 7.5},
                          {"x": True}, {"x": 0, "price": 10})
        ]
        dead = Selector("price > 10 AND price < 5")
        for probe in probes:
            assert not dead.matches(probe)
        trivial = Selector("x = x OR TRUE")
        for probe in probes:
            assert trivial.matches(probe)


class TestCanonicalization:
    EQUIVALENT = [
        "attribute = '#1'",
        "'#1' = attribute",
        "NOT (attribute <> '#1')",
        "attribute IN ('#1')",
        "attribute LIKE '#1'",
    ]

    def test_equivalent_selectors_share_canonical_form(self):
        keys = {canonical_text(parse(text)) for text in self.EQUIVALENT}
        assert keys == {"(attribute = '#1')"}

    def test_selector_canonical_is_lazy_and_cached(self):
        selector = Selector("'EU' = region")
        assert selector._canonical is None
        first = selector.canonical
        assert selector._canonical is first
        assert selector.canonical_text == "(region = 'EU')"

    def test_distinct_selectors_keep_distinct_canonical_forms(self):
        assert canonical_text(parse("x = '1'")) != canonical_text(parse("x = '2'"))
        assert canonical_text(parse("x > 1")) != canonical_text(parse("x >= 1"))

    def test_commutative_reordering(self):
        assert canonical_text(parse("b = 2 AND a = 1")) == canonical_text(
            parse("a = 1 AND b = 2")
        )
        assert canonical_text(parse("a = 1 AND a = 1")) == canonical_text(parse("a = 1"))

    def test_constant_folding(self):
        assert canonical_text(parse("price > 2 + 3 * 4")) == "(price > 14)"
        assert simplify(parse("TRUE AND price > 1")) == parse("price > 1")
        assert str(simplify(parse("FALSE OR price > 1"))) == "(price > 1)"


class TestBrokerSelectorPolicy:
    def test_strict_policy_rejects_ill_typed_selector(self):
        broker = Broker(topics=["t"], selector_policy="strict")
        broker.add_subscriber("s")
        with pytest.raises(InvalidSelectorError) as excinfo:
            broker.subscribe("s", "t", PropertyFilter("JMSPriority LIKE 'x%'"))
        assert "E_TYPE_LIKE" in str(excinfo.value)
        assert broker.subscriptions("t") == []

    def test_strict_policy_accepts_clean_selector(self):
        broker = Broker(topics=["t"], selector_policy="strict")
        broker.add_subscriber("s")
        broker.subscribe("s", "t", PropertyFilter("price > 10"))
        assert len(broker.subscriptions("t")) == 1
        assert broker.selector_findings == []

    def test_warn_policy_records_findings_but_subscribes(self):
        broker = Broker(topics=["t"], selector_policy="warn")
        broker.add_subscriber("s")
        broker.subscribe("s", "t", PropertyFilter("price > 10 AND price < 5"))
        assert len(broker.subscriptions("t")) == 1
        ((subscriber_id, topic, analysis),) = broker.selector_findings
        assert (subscriber_id, topic) == ("s", "t")
        assert analysis.unsatisfiable

    def test_warn_policy_keeps_ill_typed_subscription(self):
        broker = Broker(topics=["t"], selector_policy="warn")
        broker.add_subscriber("s")
        broker.subscribe("s", "t", PropertyFilter("17 = 'cheap'"))
        assert len(broker.subscriptions("t")) == 1
        assert broker.selector_findings[0][2].errors

    def test_off_policy_records_nothing(self):
        broker = Broker(topics=["t"])
        broker.add_subscriber("s")
        broker.subscribe("s", "t", PropertyFilter("17 = 'cheap'"))
        assert broker.selector_findings == []

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Broker(topics=["t"], selector_policy="pedantic")

    @pytest.mark.parametrize("policy", ["warn", "strict"])
    def test_a_text_is_analysed_once_however_many_subscribe_with_it(self, policy):
        # A text no other test names: ``selector_for`` hands every filter
        # of it one process-wide Selector, which keeps its analysis.
        text = f"once_{policy}_lane > 10 AND once_{policy}_lane < 5"
        broker = Broker(topics=["t"], selector_policy=policy)
        with mock.patch.object(analysis_module, "parse", wraps=analysis_module.parse) as parses:
            for n in range(50):
                broker.add_subscriber(f"s{n}")
                broker.subscribe(f"s{n}", "t", PropertyFilter(text))
        assert parses.call_count == 1
        assert len(broker.subscriptions("t")) == 50
        expected = analyze(text)
        assert broker.selector_findings == [(f"s{n}", "t", expected) for n in range(50)]
        assert expected.unsatisfiable and not expected.errors

    def test_subscription_selector_analysis(self):
        broker = Broker(topics=["t"])
        broker.add_subscriber("s")
        subscription = broker.subscribe("s", "t", PropertyFilter("x = x OR TRUE"))
        analysis = subscription.selector_analysis()
        assert analysis is not None and analysis.tautological
        plain = broker.subscribe("s", "t")
        assert plain.selector_analysis() is None


class TestCheckSelector:
    def test_non_strict_returns_analysis_with_errors(self):
        analysis = check_selector("17 = 'cheap'", strict=False)
        assert analysis.errors and analysis.unsatisfiable

    def test_strict_raise_carries_rendered_span(self):
        with pytest.raises(InvalidSelectorError) as excinfo:
            check_selector("17 = 'cheap'")
        message = str(excinfo.value)
        assert "17 = 'cheap'" in message and "^" in message
