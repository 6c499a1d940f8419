"""Hot-path micro-benchmarks: compiled selectors, memoized dispatch, engine.

Three measurements, one per optimisation layer of the hot path:

``bench_selector_eval``
    A corpus of representative SQL-92 selectors evaluated against a
    deterministic message corpus, once through the tree-walking
    interpreter (:func:`repro.broker.selector.evaluator.evaluate`) and
    once through the compiled closures
    (:mod:`repro.broker.selector.compile`).  Besides the two rates the
    result carries a ``mismatches`` count — the verdicts must agree on
    every (selector, message) pair.

``bench_dispatch``
    A broker with a few hundred property-filter subscriptions planning
    the same message set cold (full filter scan per publish) and warm
    (memoized via :class:`repro.broker.dispatch_cache.DispatchMemo`).
    The cold and warm ``DispatchPlan.matches`` tuples must be identical,
    and the memo's own counters must say what it saved: one miss per
    distinct message, a hit for every plan after that.

``bench_simulation``
    Events per second of the discrete-event engine driving an M/M/1
    station at the paper's Fig. 10 utilisations, with single-draw RNG
    (``batch=1``, the seeded-reproducible default) and with vectorised
    prefetch (``batch=256``).

Timing uses the best of ``repeats`` wall-clock passes
(``time.perf_counter``), the standard defence against scheduler noise
in micro-benchmarks.  All corpora are deterministic, so re-runs measure
the same work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..broker import Broker, Message, PropertyFilter
from ..broker.selector import Selector, compiled_for_ast
from ..broker.selector.evaluator import evaluate
from ..rng import RandomStreams
from ..simulation import Engine, Exponential, MeasurementWindow, QueueingStation

__all__ = [
    "SELECTOR_CORPUS",
    "HotpathAcceptance",
    "bench_dispatch",
    "bench_selector_eval",
    "bench_simulation",
    "format_hotpath_report",
    "message_corpus",
    "run_hotpath_bench",
]

#: Compiled selector evaluation must beat the interpreter by this factor.
COMPILED_SPEEDUP_MIN = 3.0
#: A warm plan must not be slower than the cold plan it avoids — and
#: that is all the timing says.  The ratio is *warm over cold*, so it
#: falls whenever cold planning gets cheaper (61x -> 17x with the fused
#: topic scan, -> 8x with boolean-expression selectors; 5.3x -> 2.7x in
#: ``--fast``) while both absolute rates rise; a floor under it is a
#: gate on the slow side staying slow.  What the memo saves is exact and
#: gated instead: identical match sets, one miss per distinct message,
#: every later plan a hit (:attr:`HotpathAcceptance.memo_exact`).
MEMO_SPEEDUP_MIN = 1.0

#: Representative selectors: one per operator family the compiler lowers,
#: plus combinations that exercise 3VL short-circuiting and a volatile
#: JMS header reference (which makes the dispatch memo header-sensitive).
SELECTOR_CORPUS: Sequence[str] = (
    "price > 100",
    "price BETWEEN 50 AND 150",
    "region = 'EU' AND price > 10",
    "region IN ('EU', 'US', 'APAC')",
    "symbol LIKE 'AB%'",
    "symbol LIKE 'A!_%' ESCAPE '!'",
    "quantity * price > 1000",
    "region = 'EU' OR region = 'US' AND price >= 20",
    "note IS NULL",
    "note IS NOT NULL OR price < 5",
    "JMSPriority >= 4 AND region = 'EU'",
    "NOT (price > 100 OR quantity < 10)",
)


def message_corpus(count: int = 64, topic: str = "orders") -> List[Message]:
    """Deterministic messages covering match, miss and UNKNOWN paths.

    Every fifth message omits ``price`` so comparisons on it evaluate to
    UNKNOWN, and every third carries ``note`` so IS [NOT] NULL sees both
    outcomes.  No RNG: the corpus is a pure function of ``count``.
    """
    regions = ("EU", "US", "APAC", "LATAM")
    symbols = ("ABC", "A_X", "XYZ", "ABQ")
    messages = []
    for i in range(count):
        properties: Dict[str, object] = {
            "quantity": (i * 13) % 50,
            "region": regions[i % len(regions)],
            "symbol": symbols[(i * 7) % len(symbols)],
        }
        if i % 5 != 0:
            properties["price"] = float((i * 37) % 200)
        if i % 3 == 0:
            properties["note"] = f"n{i}"
        messages.append(
            Message(topic=topic, properties=properties, priority=i % 10)
        )
    return messages


def _best_rates(runs: Sequence[Callable[[], None]], ops: int, repeats: int) -> List[float]:
    """Operations per second of each contender over the fastest of its
    ``repeats`` passes.  The contenders' passes are interleaved, so a
    drift of the box's speed between two phases cannot pass for a
    difference between two contenders (it moved a 1.3x ratio anywhere
    between 0.9x and 1.5x on a shared two-core box)."""
    best = [float("inf")] * len(runs)
    for _ in range(max(1, repeats)):
        for index, run in enumerate(runs):
            # The bench harness *measures* host wall time by design; it never
            # feeds simulation state, so determinism (SIM001) does not apply.
            start = time.perf_counter()  # repro: ignore[SIM001]
            run()
            elapsed = time.perf_counter() - start  # repro: ignore[SIM001]
            best[index] = min(best[index], elapsed)
    return [ops / elapsed if elapsed > 0 else float("inf") for elapsed in best]


def _best_rate(run: Callable[[], None], ops: int, repeats: int) -> float:
    """Operations per second over the fastest of ``repeats`` passes."""
    return _best_rates([run], ops, repeats)[0]


# ----------------------------------------------------------------------
# Layer (a): selector evaluation
# ----------------------------------------------------------------------
def bench_selector_eval(messages: int = 64, repeats: int = 5) -> Dict[str, object]:
    """Interpreter vs. compiled ops/s over the selector corpus."""
    corpus = message_corpus(messages)
    selectors = [Selector(text) for text in SELECTOR_CORPUS]
    asts = [selector.canonical for selector in selectors]
    compiled = [compiled_for_ast(ast).matches for ast in asts]

    mismatches = 0
    for ast, matcher in zip(asts, compiled):
        for message in corpus:
            if (evaluate(ast, message) is True) != matcher(message):
                mismatches += 1

    ops = len(asts) * len(corpus)

    def run_interpreter() -> None:
        for ast in asts:
            for message in corpus:
                evaluate(ast, message)

    def run_compiled() -> None:
        for matcher in compiled:
            for message in corpus:
                matcher(message)

    interpreter_rate = _best_rate(run_interpreter, ops, repeats)
    compiled_rate = _best_rate(run_compiled, ops, repeats)
    return {
        "selectors": len(asts),
        "messages": len(corpus),
        "repeats": repeats,
        "ops_per_s_interpreter": interpreter_rate,
        "ops_per_s_compiled": compiled_rate,
        "speedup": compiled_rate / interpreter_rate,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# Layer (b): dispatch planning
# ----------------------------------------------------------------------
def _build_broker(subscriptions: int, topic: str = "orders") -> Broker:
    """A broker whose one topic carries ``subscriptions`` distinct filters."""
    broker = Broker(topics=[topic])
    for i in range(subscriptions):
        subscriber_id = f"sub-{i:04d}"
        broker.add_subscriber(subscriber_id)
        base = SELECTOR_CORPUS[i % len(SELECTOR_CORPUS)]
        # The varying conjunct keeps the filters semantically distinct so
        # canonicalization cannot collapse the population.
        broker.subscribe(
            subscriber_id,
            topic,
            PropertyFilter(f"({base}) AND quantity <> {i % 97 + 100}"),
        )
    return broker


def bench_dispatch(
    subscriptions: int = 200,
    distinct_messages: int = 32,
    repeats: int = 5,
) -> Dict[str, object]:
    """Cold vs. warm (memoized) dispatch plans/s; matches must be identical."""
    topic = "orders"
    broker = _build_broker(subscriptions, topic=topic)
    corpus = message_corpus(distinct_messages, topic=topic)

    cold_plans = [broker.dry_run(message) for message in corpus]

    def run_cold() -> None:
        for message in corpus:
            broker.dry_run(message)

    cold_rate = _best_rate(run_cold, len(corpus), repeats)

    broker.install_dispatch_memo(maxsize=4 * distinct_messages)
    warm_plans = [broker.dry_run(message) for message in corpus]  # prime
    warm_plans = [broker.dry_run(message) for message in corpus]
    identical = all(
        cold.matches == warm.matches
        for cold, warm in zip(cold_plans, warm_plans)
    )

    def run_warm() -> None:
        for message in corpus:
            broker.dry_run(message)

    warm_rate = _best_rate(run_warm, len(corpus), repeats)
    memo = broker.dispatch_memo(topic)
    assert memo is not None
    # Plans made after the priming pass: the probe above + the timed passes.
    later_plans = (1 + max(1, repeats)) * len(corpus)
    return {
        "subscriptions": subscriptions,
        "distinct_messages": len(corpus),
        "repeats": repeats,
        "plans_per_s_cold": cold_rate,
        "plans_per_s_warm": warm_rate,
        "speedup": warm_rate / cold_rate,
        "matches_identical": identical,
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
        "memo_entries": len(memo),
        "plans_after_priming": later_plans,
        # What the memo saved, as its own counters tell it: one miss per
        # distinct message, a hit for every plan after the priming pass.
        "memo_exact": memo.misses == len(corpus) and memo.hits == later_plans,
    }


# ----------------------------------------------------------------------
# Layer (c): simulation engine throughput
# ----------------------------------------------------------------------
def _run_mm1_events(rho: float, horizon: float, batch: int, seed: int = 7) -> int:
    """One M/M/1 run at utilisation ``rho``; returns events processed."""
    mean_service = 0.001
    arrival_rate = rho / mean_service
    engine = Engine()
    rng = RandomStreams(seed=seed).stream(f"bench-mm1-{rho:g}")
    window = MeasurementWindow(0.1 * horizon, 0.9 * horizon)
    service = Exponential(1.0 / mean_service)
    station = QueueingStation(engine, service, rng, window=window, name="bench")
    if batch > 1:
        from ..simulation.distributions import BatchSampler

        draw_gap: Callable[[], float] = BatchSampler(
            Exponential(arrival_rate), rng, batch
        )
    else:

        def draw_gap() -> float:
            return float(rng.exponential(1.0 / arrival_rate))

    def schedule_next() -> None:
        def on_arrival() -> None:
            station.arrive()
            schedule_next()

        engine.call_in(draw_gap(), on_arrival)

    schedule_next()
    engine.run(until=horizon)
    return engine.events_processed


def bench_simulation(
    horizon: float = 10.0,
    loads: Sequence[float] = (0.5, 0.7, 0.9),
    batch: int = 256,
    repeats: int = 3,
) -> Dict[str, object]:
    """Engine events/s on a Fig. 10-style utilisation sweep."""
    rows = []
    for rho in loads:
        events = _run_mm1_events(rho, horizon, batch=1)
        single_rate = _best_rate(
            lambda rho=rho: _run_mm1_events(rho, horizon, batch=1), events, repeats
        )
        batched_events = _run_mm1_events(rho, horizon, batch=batch)
        batched_rate = _best_rate(
            lambda rho=rho: _run_mm1_events(rho, horizon, batch=batch),
            batched_events,
            repeats,
        )
        rows.append(
            {
                "rho": rho,
                "events": events,
                "events_per_s_single": single_rate,
                "events_per_s_batched": batched_rate,
                "batched_speedup": batched_rate / single_rate,
            }
        )
    return {
        "horizon": horizon,
        "batch": batch,
        "repeats": repeats,
        "sweep": rows,
    }


# ----------------------------------------------------------------------
# Assembly and the acceptance gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HotpathAcceptance:
    """Pass/fail verdicts of the perf-regression gate."""

    compiled_speedup: float
    memo_speedup: float
    selector_mismatches: int
    matches_identical: bool
    memo_exact: bool

    @property
    def compiled_pass(self) -> bool:
        return self.compiled_speedup >= COMPILED_SPEEDUP_MIN

    @property
    def memo_pass(self) -> bool:
        return self.memo_exact and self.memo_speedup >= MEMO_SPEEDUP_MIN

    @property
    def equivalent(self) -> bool:
        return self.selector_mismatches == 0 and self.matches_identical

    @property
    def passed(self) -> bool:
        return self.compiled_pass and self.memo_pass and self.equivalent


def run_hotpath_bench(fast: bool = False) -> Dict[str, object]:
    """Run all three layers and assemble the ``BENCH_hotpath.json`` payload."""
    if fast:
        selector = bench_selector_eval(messages=32, repeats=3)
        dispatch = bench_dispatch(subscriptions=64, distinct_messages=16, repeats=3)
        simulation = bench_simulation(horizon=2.0, loads=(0.7,), repeats=2)
    else:
        selector = bench_selector_eval()
        dispatch = bench_dispatch()
        simulation = bench_simulation()
    acceptance = HotpathAcceptance(
        compiled_speedup=float(selector["speedup"]),  # type: ignore[arg-type]
        memo_speedup=float(dispatch["speedup"]),  # type: ignore[arg-type]
        selector_mismatches=int(selector["mismatches"]),  # type: ignore[arg-type]
        matches_identical=bool(dispatch["matches_identical"]),
        memo_exact=bool(dispatch["memo_exact"]),
    )
    return {
        "description": (
            "Hot-path perf baseline: compiled selector closures vs. the "
            "tree-walking interpreter, memoized dispatch plans vs. cold "
            "filter scans, and engine events/s on an M/M/1 utilisation "
            "sweep with single-draw vs. batched RNG sampling.  Rates are "
            "machine-dependent; the gate asserts the compiled-over-"
            "interpreter ratio, the equivalence counters and what the memo "
            "saves as exact counts (one miss per distinct message, every "
            "later plan a hit) — of the warm-over-cold ratio only that a "
            "warm plan is not slower than the cold one it avoids."
        ),
        "config": {
            "fast": fast,
            "compiled_speedup_min": COMPILED_SPEEDUP_MIN,
            "memo_speedup_min": MEMO_SPEEDUP_MIN,
            "selector_corpus": list(SELECTOR_CORPUS),
        },
        "selector_eval": selector,
        "dispatch": dispatch,
        "simulation": simulation,
        "acceptance": {
            "compiled_speedup": acceptance.compiled_speedup,
            "compiled_pass": acceptance.compiled_pass,
            "memo_speedup": acceptance.memo_speedup,
            "memo_exact": acceptance.memo_exact,
            "memo_pass": acceptance.memo_pass,
            "selector_mismatches": acceptance.selector_mismatches,
            "matches_identical": acceptance.matches_identical,
            "pass": acceptance.passed,
        },
    }


def format_hotpath_report(payload: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_hotpath_bench` payload."""
    selector = payload["selector_eval"]
    dispatch = payload["dispatch"]
    simulation = payload["simulation"]
    acceptance = payload["acceptance"]
    lines = [
        "hot-path benchmark",
        (
            f"  selector eval: interpreter {selector['ops_per_s_interpreter']:,.0f} ops/s, "  # type: ignore[index]
            f"compiled {selector['ops_per_s_compiled']:,.0f} ops/s "  # type: ignore[index]
            f"({selector['speedup']:.1f}x, mismatches={selector['mismatches']})"  # type: ignore[index]
        ),
        (
            f"  dispatch: cold {dispatch['plans_per_s_cold']:,.0f} plans/s, "  # type: ignore[index]
            f"warm {dispatch['plans_per_s_warm']:,.0f} plans/s "  # type: ignore[index]
            f"({dispatch['speedup']:.1f}x, identical={dispatch['matches_identical']}, "  # type: ignore[index]
            f"memo {dispatch['memo_misses']} misses / {dispatch['distinct_messages']} distinct, "  # type: ignore[index]
            f"{dispatch['memo_hits']} hits / {dispatch['plans_after_priming']} later plans)"  # type: ignore[index]
        ),
    ]
    for row in simulation["sweep"]:  # type: ignore[index]
        lines.append(
            f"  engine rho={row['rho']:g}: {row['events_per_s_single']:,.0f} events/s "
            f"(batched {row['events_per_s_batched']:,.0f}, "
            f"{row['batched_speedup']:.2f}x)"
        )
    verdict = "PASS" if acceptance["pass"] else "FAIL"  # type: ignore[index]
    lines.append(
        f"  gate: compiled >= {COMPILED_SPEEDUP_MIN:g}x "
        f"{'ok' if acceptance['compiled_pass'] else 'FAIL'}, "  # type: ignore[index]
        f"memo counts exact and warm >= {MEMO_SPEEDUP_MIN:g}x cold "
        f"{'ok' if acceptance['memo_pass'] else 'FAIL'} -> {verdict}"  # type: ignore[index]
    )
    return "\n".join(lines)
