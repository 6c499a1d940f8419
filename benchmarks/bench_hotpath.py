"""Hot-path microbenchmarks — compiled selectors and memoized dispatch.

Prints the interpreter-vs-compiled and cold-vs-warm rates the
``BENCH_hotpath.json`` baseline records, then times each layer with
pytest-benchmark.  The assertions mirror ``python -m repro bench hotpath``: the
compiled-over-interpreter ratio, exact equivalence and what the memo
saves as exact counts — never absolute rates.
"""

from __future__ import annotations

import pytest

from repro.bench.hotpath import (
    COMPILED_SPEEDUP_MIN,
    MEMO_SPEEDUP_MIN,
    SELECTOR_CORPUS,
    _build_broker,
    bench_dispatch,
    bench_selector_eval,
    message_corpus,
)
from repro.broker.selector import Selector, compiled_for_ast
from repro.broker.selector.evaluator import evaluate

from conftest import banner, report


@pytest.fixture(scope="module")
def hotpath():
    selector = bench_selector_eval(messages=32, repeats=3)
    dispatch = bench_dispatch(subscriptions=64, distinct_messages=16, repeats=3)
    banner("Hot path: compiled selectors and memoized dispatch")
    report(
        f"selector eval: interpreter {selector['ops_per_s_interpreter']:,.0f} ops/s,"
        f" compiled {selector['ops_per_s_compiled']:,.0f} ops/s"
        f" ({selector['speedup']:.1f}x)"
    )
    report(
        f"dispatch: cold {dispatch['plans_per_s_cold']:,.0f} plans/s,"
        f" warm {dispatch['plans_per_s_warm']:,.0f} plans/s"
        f" ({dispatch['speedup']:.1f}x)"
    )
    return {"selector": selector, "dispatch": dispatch}


def test_compiled_selector_speedup(hotpath):
    """The compiler must beat the tree walker by the gate's margin."""
    assert hotpath["selector"]["mismatches"] == 0
    assert hotpath["selector"]["speedup"] >= COMPILED_SPEEDUP_MIN


def test_memoized_dispatch_speedup(hotpath):
    """What the memo saves is exact — identical match sets, one miss per
    distinct message, every later plan a hit; of the clock only that a
    warm plan is not slower than the cold one it avoids."""
    assert hotpath["dispatch"]["matches_identical"]
    assert hotpath["dispatch"]["memo_exact"]
    assert hotpath["dispatch"]["speedup"] >= MEMO_SPEEDUP_MIN


def test_bench_selector_interpreter(benchmark):
    corpus = message_corpus(32)
    asts = [Selector(text).canonical for text in SELECTOR_CORPUS]

    def run():
        for ast in asts:
            for message in corpus:
                evaluate(ast, message)

    benchmark(run)


def test_bench_selector_compiled(benchmark):
    corpus = message_corpus(32)
    matchers = [
        compiled_for_ast(Selector(text).canonical).matches
        for text in SELECTOR_CORPUS
    ]

    def run():
        for matcher in matchers:
            for message in corpus:
                matcher(message)

    benchmark(run)


def test_bench_dispatch_cold(benchmark):
    broker = _build_broker(64)
    corpus = message_corpus(16)

    def run():
        for message in corpus:
            broker.dry_run(message)

    benchmark(run)


def test_bench_dispatch_warm(benchmark):
    broker = _build_broker(64)
    broker.install_dispatch_memo(maxsize=64)
    corpus = message_corpus(16)
    for message in corpus:
        broker.dry_run(message)

    def run():
        for message in corpus:
            broker.dry_run(message)

    benchmark(run)
