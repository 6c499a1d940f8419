"""The topic scan inside the broker: when it is rebuilt, and what it costs.

``tests/broker/test_selector_compile.py`` proves that a scan kernel gives
the interpreter's verdicts.  This file is about the broker around it: a
kernel is generated code bound to one subscription list, so every event
that changes the list (or the planner) must drop it, and the cost model
of the change — blocks are shared by content, a cold plan is one call
per block — is asserted by counting, never by timing.
"""

import importlib.util
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.broker import (
    Broker,
    CorrelationIdFilter,
    MatchAllFilter,
    Message,
    PropertyFilter,
)
from repro.broker.selector import SCAN_BLOCK, Expr, ScanKernel, compile_scan, evaluate
from repro.broker.selector.compile import _BLOCK_CACHE

TOPIC = "t"

FILTERS = (
    lambda: MatchAllFilter(),
    lambda: CorrelationIdFilter("7"),
    lambda: CorrelationIdFilter("[5;9]"),
    lambda: CorrelationIdFilter("sensor-*"),
    lambda: PropertyFilter("price > 100"),
    lambda: PropertyFilter("100 < price"),  # same canonical form as above
    lambda: PropertyFilter("region = 'EU' AND price BETWEEN 50 AND 150"),
    lambda: PropertyFilter("note IS NULL OR JMSPriority >= 5"),
    lambda: PropertyFilter("price > 1 AND price < 0"),  # statically dead
    lambda: PropertyFilter("region IN ('EU', 'US')"),
)

MESSAGES = (
    Message(topic=TOPIC, properties={"price": 120.0, "region": "EU"}, correlation_id="7"),
    Message(topic=TOPIC, properties={"price": 60, "region": "US", "note": "n"}, priority=9),
    Message(topic=TOPIC, correlation_id="sensor-4"),
)


def interpreter_scan(broker: Broker, message: Message):
    """From scratch, no kernel, no closure: the installed subscriptions
    in order, property selectors through the tree walker."""
    matches = []
    for subscription in broker.subscriptions(TOPIC):
        filter_ = subscription.filter
        if isinstance(filter_, PropertyFilter):
            accepted = evaluate(filter_.selector.ast, message) is True
        else:
            accepted = filter_.is_trivial or filter_.matches(message)
        if accepted:
            matches.append(subscription)
    return tuple(matches)


class ScanInvalidationMachine(RuleBasedStateMachine):
    """Interleave everything that can make a built scan stale with plans."""

    def __init__(self):
        super().__init__()
        self.broker = Broker(topics=[TOPIC])
        self.installed = []
        self.names = 0

    @rule(pick=st.integers(min_value=0, max_value=len(FILTERS) - 1), durable=st.booleans())
    def subscribe(self, pick, durable):
        self.names += 1
        subscriber = self.broker.add_subscriber(f"s{self.names}")
        self.installed.append(
            self.broker.subscribe(subscriber, TOPIC, FILTERS[pick](), durable=durable)
        )

    @precondition(lambda self: self.installed)
    @rule(data=st.data())
    def unsubscribe(self, data):
        victim = data.draw(st.sampled_from(self.installed))
        self.installed.remove(victim)
        self.broker.unsubscribe(victim)

    @precondition(lambda self: self.installed)
    @rule(data=st.data())
    def disconnect(self, data):
        self.broker.disconnect(data.draw(st.sampled_from(self.installed)).subscriber)

    @rule()
    def crash_and_recover(self):
        self.broker.crash()
        self.installed = [s for s in self.installed if s.durable]
        self.broker.recover()

    @rule(canonicalize=st.booleans())
    def install_filter_index(self, canonicalize):
        self.broker.install_filter_index(canonicalize=canonicalize)

    @rule()
    def remove_filter_index(self):
        self.broker.remove_filter_index()

    @rule(maxsize=st.integers(min_value=1, max_value=4))
    def install_dispatch_memo(self, maxsize):
        self.broker.install_dispatch_memo(maxsize=maxsize)

    @rule(pick=st.integers(min_value=0, max_value=len(MESSAGES) - 1))
    def dry_run(self, pick):
        self.broker.dry_run(MESSAGES[pick])

    @invariant()
    def plans_are_a_fresh_interpreter_scan(self):
        assert self.broker.subscriptions(TOPIC) == self.installed
        # The plain broker bills every installed filter, an index one
        # evaluation per distinct filter; a memo hit evaluates nothing.
        if self.broker.uses_filter_index:
            bill = self.broker._indices[TOPIC].distinct_filters
        else:
            bill = self.broker.filter_count(TOPIC)
        billed = (0, bill) if self.broker.uses_dispatch_memo else (bill,)
        for message in MESSAGES:
            plan = self.broker.dry_run(message)
            assert plan.matches == interpreter_scan(self.broker, message)
            assert plan.filters_evaluated in billed


ScanInvalidationMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestScanInvalidation = ScanInvalidationMachine.TestCase


def build_topic(count: int) -> Broker:
    """``count`` pairwise distinct selectors on one topic (no plan yet)."""
    broker = Broker(topics=[TOPIC])
    for i in range(count):
        subscriber = broker.add_subscriber(f"s{i}")
        broker.subscribe(
            subscriber, TOPIC, PropertyFilter(f"scan_cost_lane = {i} AND price > {i % 7}")
        )
    return broker


@contextmanager
def counted_isinstance(kernel: ScanKernel):
    """Count the ``isinstance`` calls the kernel's generated blocks make,
    through a counting twin in their globals (blocks are shared
    process-wide by content, so the builtin goes back afterwards)."""
    calls = [0]

    def counting(value, types):
        calls[0] += 1
        return isinstance(value, types)

    namespaces = [block.__globals__ for _base, block in kernel._blocks]
    for namespace in namespaces:
        namespace["isinstance"] = counting
    try:
        yield calls
    finally:
        for namespace in namespaces:
            namespace["isinstance"] = isinstance


@contextmanager
def counted_reprs():
    """Count ``repr`` calls on selector AST nodes, the recursive ones too."""
    calls = [0]
    with ExitStack() as patches:
        for node_class in Expr.__subclasses__():

            def counting(node, original=node_class.__repr__):
                calls[0] += 1
                return original(node)

            patches.enter_context(mock.patch.object(node_class, "__repr__", counting))
        yield calls


def generated_lines(kernel: ScanKernel) -> int:
    """Source lines of the kernel's blocks: a block's source is one
    function, so its last line number is its length."""
    return sum(
        max(line for _start, _end, line in block.__code__.co_lines() if line is not None)
        for _base, block in kernel._blocks
    )


def lifecycle_fanout_inputs():
    """The ``fanout_filtered`` workload of the lifecycle benchmark, loaded
    by path (``benchmarks/`` is no package and imports nothing of ours)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "lifecycle" / "inputs.py"
    spec = importlib.util.spec_from_file_location("lifecycle_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fanout_filtered(seed=21, quick=True)


class TestScanCost:
    """Counters, not clocks: what is generated, and how many calls a plan is."""

    @pytest.fixture(autouse=True)
    def empty_block_cache(self):
        """The block cache clears itself when full (128 blocks), and the
        suites before this one leave it at an arbitrary level: a clear
        landing between two builds of one test would read as a
        regeneration (about one run in twenty, at the parent too)."""
        _BLOCK_CACHE.clear()

    def test_blocks_are_shared_by_content_and_a_plan_is_one_call_per_block(self):
        count = 200
        blocks = -(-count // SCAN_BLOCK)
        message = Message(topic=TOPIC, properties={"scan_cost_lane": 3, "price": 5})

        first = build_topic(count)
        assert TOPIC not in first._scans  # subscribing builds nothing
        assert [s.subscriber.subscriber_id for s in first.dry_run(message).matches] == ["s3"]
        kernel = first._scans[TOPIC].kernel
        assert (kernel.evaluated, kernel.blocks_generated) == (count, blocks)

        # The same topic on a second broker: cache hits only.
        second = build_topic(count)
        second.dry_run(message)
        assert second._scans[TOPIC].kernel.blocks_generated == 0

        # One more subscription changes the last block and no other.
        subscriber = second.add_subscriber("late")
        second.subscribe(subscriber, TOPIC, PropertyFilter("scan_cost_lane = 3"))
        assert TOPIC not in second._scans
        plan = second.dry_run(message)
        assert [s.subscriber.subscriber_id for s in plan.matches] == ["s3", "late"]
        assert plan.filters_evaluated == count + 1
        assert second._scans[TOPIC].kernel.blocks_generated == 1

        # A cold plan is ceil(n / SCAN_BLOCK) generated-function calls.
        kernel = first._scans[TOPIC].kernel
        before = kernel.block_calls
        first.dry_run(message)
        assert first._scans[TOPIC].kernel is kernel  # nothing changed: reused
        assert kernel.block_calls - before == blocks

    def test_a_scan_build_walks_each_selector_through_repr_once_per_process(self):
        # Three filters per text; texts no other test names, so each
        # Selector computes its key here, on the first build.
        texts = [f"repr_lane = {i} AND repr_px BETWEEN {i} AND {i + 9}" for i in range(40)]
        filters = [PropertyFilter(text) for text in texts for _ in range(3)]
        with counted_reprs() as walks:
            for filter_ in filters[::3]:
                repr(filter_.selector.canonical)
        with counted_reprs() as calls:
            first = compile_scan(filters)
        assert calls[0] == walks[0] > 0  # one walk per distinct text, not per filter
        with counted_reprs() as calls:
            again = compile_scan(filters)
            compile_scan(filters[::-1])
        assert calls[0] == 0
        assert (first.blocks_generated, again.blocks_generated) == (-(-120 // SCAN_BLOCK), 0)

    def test_equal_asts_of_unequal_literal_types_share_no_block(self):
        # ``Literal(True) == Literal(1) == Literal(1.0)``; their reprs differ.
        message = Message(topic=TOPIC, properties={"typed_lane": True})
        verdicts = []
        for text in ("typed_lane = TRUE", "typed_lane = 1", "typed_lane = 1.0"):
            kernel = compile_scan([PropertyFilter(text)])
            assert kernel.blocks_generated == 1
            verdicts.append(kernel(message))
        assert verdicts == [[0], [], []]

    def test_filter_index_scans_one_unit_per_shared_group(self):
        broker = Broker(topics=[TOPIC])
        for i in range(3 * SCAN_BLOCK):
            subscriber = broker.add_subscriber(f"s{i}")
            # 40 distinct selectors, each shared by two or three subscriptions
            broker.subscribe(subscriber, TOPIC, PropertyFilter(f"scan_group_lane = {i % 40}"))
        broker.install_filter_index()
        plan = broker.dry_run(Message(topic=TOPIC, properties={"scan_group_lane": 1}))
        assert [s.subscriber.subscriber_id for s in plan.matches] == ["s1", "s41", "s81"]
        assert plan.filters_evaluated == 40
        kernel, groups = broker._indices[TOPIC]._scan
        assert (kernel.evaluated, len(groups), kernel.block_calls) == (40, 40, 2)

    def test_a_type_is_tested_once_per_block_however_many_filters_ask(self):
        """Type guards are hoisted like loads: one local per (identifier,
        kind) a block asks about.  ``is it a number?`` is two calls
        (``int``/``float``, then not ``bool``), ``is it a string?`` one."""
        message = Message(topic=TOPIC, properties={"cost_p": 5, "cost_r": "EU", "cost_s": "a-b"})

        def calls_per_scan(selectors):
            kernel = compile_scan([PropertyFilter(text) for text in selectors])
            with counted_isinstance(kernel) as calls:
                kernel(message)
            assert kernel.block_calls == -(-len(selectors) // SCAN_BLOCK)
            return calls[0]

        numeric = [f"cost_p > {i} AND cost_p <> {i + 2}" for i in range(2 * SCAN_BLOCK)]
        assert calls_per_scan(numeric[:1]) == 2
        assert calls_per_scan(numeric[:SCAN_BLOCK]) == 2  # not 2 x 32 x 2
        assert calls_per_scan(numeric) == 4  # two blocks
        mixed = [
            f"cost_p BETWEEN {i} AND {i + 3} AND (cost_r = 'r{i}' OR cost_s LIKE 'a{i}%')"
            f" AND cost_r IN ('EU', 'r{i}') AND NOT (cost_p / 2 < {i})"
            for i in range(SCAN_BLOCK)
        ]
        # number? of cost_p (2), string? of cost_r and cost_s, int? of cost_p
        assert calls_per_scan(mixed) == 5
        # A value of another type stops the number test at its first call.
        message.properties["cost_p"] = "five"
        assert calls_per_scan(numeric[:SCAN_BLOCK]) == 1

    def test_the_benchmark_topic_in_lines_and_type_tests(self):
        """The lifecycle benchmark's 200 selectors over five properties:
        4 302 generated lines and 393.7 ``isinstance`` calls per cold plan
        as ``if``/``elif`` ladders; one line per selector plus loads and
        guards, and five calls per block, as boolean expressions."""
        inputs = lifecycle_fanout_inputs()
        kernel = compile_scan([PropertyFilter(text) for _id, _topic, text in inputs.subscriptions])
        assert (kernel.evaluated, len(kernel._blocks)) == (200, 7)
        assert generated_lines(kernel) <= 600
        shapes = {tuple(sorted(item[1].items())): item[1] for item in inputs.items}
        assert len(shapes) > 500
        with counted_isinstance(kernel) as calls:
            for properties in shapes.values():
                kernel(Message(topic="ticks", properties=dict(properties)))
        assert calls[0] <= 40 * len(shapes)
        assert kernel.block_calls == 7 * len(shapes)
