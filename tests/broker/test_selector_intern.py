"""One ``Selector`` per text: a subscription pays once per distinct selector.

``PropertyFilter(text)`` takes its selector from
:func:`repro.broker.selector.selector_for`, a bounded per-text cache, so
the parse, the identifier walk, the canonical form and the compiled
matcher of a text are derived once per process, not once per
subscription of that text in every broker built.  ``Selector(text)``
still builds a fresh object, and equality and hashing are by AST as
before.  The equivalence class holds the shared object to a fresh one on
the hot-path corpus.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.broker.selector as selector_package
from repro.bench.hotpath import SELECTOR_CORPUS, message_corpus
from repro.broker import Broker, Message, PropertyFilter
from repro.broker.errors import InvalidSelectorError
from repro.broker.selector import Selector, selector_for


@pytest.fixture
def calls(monkeypatch):
    """Counts of the per-text derivations, through wrappers around the
    names the selector package calls them by; the cache starts empty."""
    counts = Counter()
    for name in ("parse", "iter_identifiers", "simplify"):
        real = getattr(selector_package, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(selector_package, name, counted)
    selector_for.cache_clear()
    yield counts
    selector_for.cache_clear()


def fanout_broker(texts, subscriptions):
    broker = Broker(topics=["t"])
    for n in range(subscriptions):
        subscriber = broker.add_subscriber(f"s{n}")
        broker.subscribe(subscriber, "t", PropertyFilter(texts[n % len(texts)]))
    # The first publish builds the topic's scan: every canonical form.
    broker.publish(Message(topic="t", properties={"price": 120.0, "region": "EU"}))
    return broker


class TestOnePerText:
    def test_k_texts_over_n_subscriptions_are_derived_k_times(self, calls):
        texts = SELECTOR_CORPUS[:5]
        fanout_broker(texts, 60)
        assert calls == {"parse": 5, "iter_identifiers": 5, "simplify": 5}
        calls.clear()
        fanout_broker(texts, 60)  # a second broker from the same texts
        assert calls == {}

    def test_filters_of_one_text_share_one_selector(self):
        first, second = PropertyFilter("price > 100"), PropertyFilter("price > 100")
        assert first.selector is second.selector
        assert first == second and hash(first) == hash(second)
        # The class still builds a fresh object; equality stays by AST.
        fresh = Selector("price > 100")
        assert fresh is not first.selector
        assert fresh == first.selector and hash(fresh) == hash(first.selector)
        assert PropertyFilter(fresh) == first and PropertyFilter(fresh).selector is fresh
        spaced = PropertyFilter("price>100")
        assert spaced.selector is not first.selector and spaced == first
        assert PropertyFilter("price > 101") != first

    def test_an_invalid_text_raises_on_every_call(self, calls):
        for _ in range(3):
            with pytest.raises(InvalidSelectorError):
                PropertyFilter("price >")
        assert calls["parse"] == 3
        assert selector_for.cache_info().currsize == 0

    def test_the_cache_is_bounded(self):
        assert selector_for.cache_info().maxsize == 4096


_sparse_message = st.builds(
    Message,
    topic=st.just("orders"),
    properties=st.dictionaries(
        st.sampled_from(("price", "quantity", "region", "symbol", "note")),
        st.one_of(
            st.booleans(),
            st.integers(min_value=-5, max_value=300),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(("EU", "US", "APAC", "ABC", "A_X", "XYZ")),
        ),
        max_size=5,
    ),
    priority=st.integers(min_value=0, max_value=9),
)


class TestInternedEquivalence:
    @pytest.mark.parametrize("text", SELECTOR_CORPUS)
    def test_the_shared_selector_is_a_fresh_one_on_the_corpus(self, text):
        shared, fresh = selector_for(text), Selector(text)
        assert shared.identifiers == fresh.identifiers
        assert shared.canonical_text == fresh.canonical_text
        for message in message_corpus(64):
            assert shared.matches(message) == fresh.matches(message)
            assert shared.evaluate(message) is fresh.evaluate(message)

    @given(text=st.sampled_from(SELECTOR_CORPUS), message=_sparse_message)
    @settings(max_examples=300, deadline=None)
    def test_the_shared_selector_is_a_fresh_one_on_any_message(self, text, message):
        shared, fresh = PropertyFilter(text), PropertyFilter(Selector(text))
        assert shared.matches(message) == fresh.matches(message)
        assert shared.matcher()(message) == fresh.matcher()(message)
