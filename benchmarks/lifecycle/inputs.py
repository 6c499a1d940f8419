"""Seeded, product-free input generation for the lifecycle benchmark.

Every workload's input is a list of plain tuples built from ``--seed``
before any clock starts.  Nothing here imports ``repro``: the program
under test only ever sees ``(destination, properties, body, deadline)``
message tuples (``deadline`` is a budget in virtual seconds or ``None``)
and, for ``fanout_filtered`` and ``mesh_batch``, selector strings.

What a seed changes and what it does not.  A seed draws the traffic: the
order of messages, the labels and numeric values of their properties,
the bodies, which queue a batch goes to, which messages carry a
deadline.  It does not change a workload's *structure*: how many
subscribers exist, how selective each selector is, how popular the n-th
most popular message shape is.  Two seeds therefore give different
inputs from one distribution, so that a difference between two runs is a
difference between two programs and not between two workloads.

Why each workload exists
------------------------
``fanout_filtered``
    The paper's own scenario: one topic, 200 subscribers with one
    selective SQL-92 selector each, single ``publish`` calls.  Message
    shapes are Zipf(1.1) over 8,192 distinct property sets, eight times
    the 1,024-entry dispatch memo, so the warm (memo hit) and the cold
    (200 selector evaluations) planning paths both carry weight.
    Exercises: message construction, fingerprinting, memo, selector
    evaluation, fan-out delivery.  Bypasses: journal, replication, mesh.
``durable_queue``
    One journaled point-to-point queue, ``SyncPolicy.always()``, one
    consumer, persistent ``send -> receive -> ack``.  Bodies are 64 B /
    1 KiB / 16 KiB at 50/40/10 %, which makes a per-byte cost visible
    beside the per-message cost.  Exercises: the write-ahead path (three
    records and three syncs per message), checkpoint compaction,
    recovery.  Bypasses: filters, routing, replication, mesh.
``replicated_sync``
    The same cycle on a ``ReplicatedPair`` in sync mode: the client
    waits until the standby has applied its PUBLISH record.  The journal
    is written by the broker and read by the tailer at the same time.
    Exercises: tailing, framing, the link, the standby's fold and
    journal, promotion.  Bypasses: filters, mesh, batching.
``mesh_batch``
    The broker and durability layers through their *other* code path:
    ``send_batch`` / ``publish_batch`` on a four-shard mesh with group
    commit and a routing hop.  5 % of queue messages carry a deadline
    shorter than the hop (shed on the hop), 2 % one that lapses between
    delivery and pick-up (reaped in flight).  Exercises: ring routing,
    batch grouping, group commit, deadline shedding, per-shard
    checkpoint and recovery.  Bypasses: the single-message path, the
    dispatch memo, replication.

Run ``python benchmarks/lifecycle/inputs.py --seed N`` to print one
SHA-256 digest per workload; the same seed gives the same digests in
every process.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: ``(destination, properties, body, deadline)``.
MessageTuple = Tuple[str, Dict[str, Any], bytes, Optional[float]]

WORKLOADS = ("fanout_filtered", "durable_queue", "replicated_sync", "mesh_batch")

# -- sizes (messages or batches per repetition) ---------------------------
FANOUT_MESSAGES = 60_000
FANOUT_SHAPES = 8_192
FANOUT_SUBSCRIBERS = 200
FANOUT_ZIPF = 1.1
DURABLE_MESSAGES = 20_000
DURABLE_BODY_MIX = ((64, 0.5), (1024, 0.4), (16 * 1024, 0.1))
REPLICATED_MESSAGES = 10_000
MESH_BATCHES = 2_000
MESH_BATCH_SIZE = 32
MESH_QUEUES = 64
MESH_TOPICS = 8
MESH_SUBS_PER_TOPIC = 25
MESH_QUEUE_SHARE = 0.75
MESH_HOP_LATENCY = 0.0005
#: Deadline budgets: shorter than the hop / between hop and pick-up.
MESH_DEADLINE_ON_HOP = (0.0002, 0.05)
MESH_DEADLINE_IN_FLIGHT = (0.0008, 0.02)
#: Virtual time at which a consumer picks its batch up, after the send.
MESH_PICKUP_DELAY = 0.001

#: Messages left in flight (half unreceived, half unacked) when a
#: repetition ends, for the crash/recover probe.
PROBE_IN_FLIGHT = 1_000
#: Every workload divides its sizes by this under ``--quick``.
QUICK_DIVISOR = 20


class Inputs(NamedTuple):
    """One workload's generated input."""

    workload: str
    seed: int
    #: Messages (or batches: ``(domain, tuple of messages)``), in order.
    items: list
    #: Extra messages sent after the timed loop for the recovery probe.
    probe_items: list
    #: ``(subscriber_id, topic, selector)`` triples to install.
    subscriptions: List[Tuple[str, str, str]]
    #: Queue names to create (one consumer each).
    queues: List[str]

    @property
    def messages(self) -> int:
        """Messages per repetition (a batch counts each of its messages)."""
        if self.workload == "mesh_batch":
            return sum(len(batch) for _domain, batch in self.items)
        return len(self.items)


def _rng(workload: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512, not ``hash()``: stable across
    # processes whatever PYTHONHASHSEED says.
    return random.Random(f"{workload}:{seed}")


def _bodies(rng: random.Random, size: int, count: int = 16) -> List[bytes]:
    """A small pool of distinct bodies per size class (bounded memory)."""
    return [rng.randbytes(size) for _ in range(count)]


def _scaled(count: int, quick: bool) -> int:
    return max(count // QUICK_DIVISOR, 1) if quick else count


# ----------------------------------------------------------------------
# fanout_filtered
# ----------------------------------------------------------------------
def _fanout_shape(index: int, labels: Dict[str, Any]) -> Dict[str, Any]:
    """The property set of shape ``index`` = ``(a, b, c)`` bit fields."""
    a, b, c = index % 16, (index // 16) % 8, index // 128
    region, kind = labels["region"][a], labels["kind"][b]
    properties: Dict[str, Any] = {
        "region": region,
        "kind": kind,
        "price": labels["price"](c),
        "sku": f"{kind}-{region}-{c:02d}",
    }
    if c % 8 == 0:
        properties["note"] = f"n{c}"
    return properties


def _fanout_selectors(labels: Dict[str, Any]) -> List[str]:
    """200 selectors whose *structure* is fixed and whose labels are seeded.

    Six families over the ``(a, b, c)`` index space, one per operator the
    selector compiler lowers differently.  Over uniformly drawn shapes a
    message matches 1.78 of them on average (0 to 6).
    """
    region, kind, price = labels["region"], labels["kind"], labels["price"]
    selectors: List[str] = []
    for a in range(16):  # 64: equality AND BETWEEN
        for band in range(4):
            low = (a * 5 + band * 16) % 64
            selectors.append(
                f"region = '{region[a]}' AND price BETWEEN {price(low)} AND {price(low + 7)}"
            )
    for b in range(8):  # 48: equality AND comparison
        for threshold in (51, 54, 57, 59, 61, 62):
            selectors.append(f"kind = '{kind[b]}' AND price > {price(threshold)}")
    for j in range(32):  # 32: IN, NOT
        a, b = j % 16, (j * 3) % 8
        selectors.append(
            f"region IN ('{region[a]}', '{region[(a + 1) % 16]}') AND kind = '{kind[b]}'"
            f" AND NOT (price < {price(32)})"
        )
    for j in range(32):  # 32: LIKE prefix
        a, b = j % 16, (j * 5 + 1) % 8
        selectors.append(f"sku LIKE '{kind[b]}-{region[a]}-%'")
    for a in range(16):  # 16: IS NOT NULL
        selectors.append(f"note IS NOT NULL AND region = '{region[a]}'")
    for b in range(8):  # 8: OR
        selectors.append(
            f"(kind = '{kind[b]}' OR kind = '{kind[(b + 1) % 8]}') AND price < {price(4)}"
        )
    assert len(selectors) == FANOUT_SUBSCRIBERS
    return selectors


def fanout_filtered(seed: int, quick: bool = False) -> Inputs:
    rng = _rng("fanout_filtered", seed)
    regions = [f"r{n:02d}" for n in rng.sample(range(100), 16)]
    kinds = [f"k{n}" for n in rng.sample(range(10), 8)]
    base, step = rng.randrange(100), rng.randrange(5, 16)
    labels = {"region": regions, "kind": kinds, "price": lambda c: base + step * c}
    selectors = _fanout_selectors(labels)
    order = list(range(FANOUT_SUBSCRIBERS))
    rng.shuffle(order)  # installation order is traffic, not structure
    subscriptions = [(f"s{n:03d}", "ticks", selectors[n]) for n in order]
    # Rank k (popularity) -> shape index through a fixed odd multiplier, a
    # bijection on 2**13: popular shapes spread over the index space the
    # same way under every seed.
    shapes = [
        _fanout_shape((rank * 2_654_435_761) % FANOUT_SHAPES, labels)
        for rank in range(FANOUT_SHAPES)
    ]
    cumulative = list(accumulate(1.0 / (k + 1) ** FANOUT_ZIPF for k in range(FANOUT_SHAPES)))
    bodies = _bodies(rng, 128)
    items: List[MessageTuple] = []
    for _ in range(_scaled(FANOUT_MESSAGES, quick)):
        rank = bisect_left(cumulative, rng.random() * cumulative[-1])
        items.append(("ticks", shapes[rank], rng.choice(bodies), None))
    return Inputs("fanout_filtered", seed, items, [], subscriptions, [])


# ----------------------------------------------------------------------
# durable_queue / replicated_sync
# ----------------------------------------------------------------------
def _queue_message(
    rng: random.Random, destination: str, body: bytes, deadline: Optional[float] = None
) -> MessageTuple:
    properties = {"tenant": f"t{rng.randrange(32):02d}", "attempt": rng.randrange(4)}
    return (destination, properties, body, deadline)


def durable_queue(seed: int, quick: bool = False) -> Inputs:
    rng = _rng("durable_queue", seed)
    pools = [_bodies(rng, size) for size, _share in DURABLE_BODY_MIX]
    weights = [share for _size, share in DURABLE_BODY_MIX]

    def message() -> MessageTuple:
        (pool,) = rng.choices(pools, weights)
        return _queue_message(rng, "orders", rng.choice(pool))

    items = [message() for _ in range(_scaled(DURABLE_MESSAGES, quick))]
    probe = [message() for _ in range(_scaled(PROBE_IN_FLIGHT, quick))]
    return Inputs("durable_queue", seed, items, probe, [], ["orders"])


def replicated_sync(seed: int, quick: bool = False) -> Inputs:
    rng = _rng("replicated_sync", seed)
    bodies = _bodies(rng, 256)

    def message() -> MessageTuple:
        return _queue_message(rng, "orders", rng.choice(bodies))

    items = [message() for _ in range(_scaled(REPLICATED_MESSAGES, quick))]
    probe = [message() for _ in range(_scaled(PROBE_IN_FLIGHT, quick))]
    return Inputs("replicated_sync", seed, items, probe, [], ["orders"])


# ----------------------------------------------------------------------
# mesh_batch
# ----------------------------------------------------------------------
def mesh_batch(seed: int, quick: bool = False) -> Inputs:
    rng = _rng("mesh_batch", seed)
    queues = [f"q{n:02d}" for n in range(MESH_QUEUES)]
    topics = [f"t{n}" for n in range(MESH_TOPICS)]
    tiers = [f"g{n}" for n in rng.sample(range(10), 4)]
    base = rng.randrange(50)
    subscriptions: List[Tuple[str, str, str]] = []
    for t, topic in enumerate(topics):
        for j in range(MESH_SUBS_PER_TOPIC):
            # 4 tiers x 4 scores = 16 shapes per topic; a subscriber takes
            # one tier above a score threshold: 0 to 3 of the 4 scores.
            selector = f"tier = '{tiers[(t + j) % 4]}' AND score > {base + 10 * (j % 4)}"
            subscriptions.append((f"m{t}-{j:02d}", topic, selector))
    bodies = _bodies(rng, 256)
    on_hop = MESH_DEADLINE_ON_HOP[1]
    in_flight = on_hop + MESH_DEADLINE_IN_FLIGHT[1]

    def queue_batch() -> tuple:
        name = rng.choice(queues)
        messages = []
        for _ in range(MESH_BATCH_SIZE):
            draw = rng.random()
            if draw < on_hop:
                deadline: Optional[float] = MESH_DEADLINE_ON_HOP[0]
            elif draw < in_flight:
                deadline = MESH_DEADLINE_IN_FLIGHT[0]
            else:
                deadline = None
            messages.append(_queue_message(rng, name, rng.choice(bodies), deadline))
        return ("queue", tuple(messages))

    def topic_batch() -> tuple:
        pair = rng.sample(topics, 2)  # two topics: usually two owner shards
        messages = []
        for _ in range(MESH_BATCH_SIZE):
            properties = {"tier": rng.choice(tiers), "score": base + 10 * rng.randrange(4) + 5}
            messages.append((rng.choice(pair), properties, rng.choice(bodies), None))
        return ("topic", tuple(messages))

    items = [
        queue_batch() if rng.random() < MESH_QUEUE_SHARE else topic_batch()
        for _ in range(_scaled(MESH_BATCHES, quick))
    ]
    # The probe leaves whole batches in flight, on every queue in turn.
    probe = []
    for n in range(max(_scaled(PROBE_IN_FLIGHT, quick) // MESH_BATCH_SIZE, 2)):
        name = queues[n % MESH_QUEUES]
        probe.append(
            (
                "queue",
                tuple(
                    _queue_message(rng, name, rng.choice(bodies))
                    for _ in range(MESH_BATCH_SIZE)
                ),
            )
        )
    return Inputs("mesh_batch", seed, items, probe, subscriptions, queues)


GENERATORS = {
    "fanout_filtered": fanout_filtered,
    "durable_queue": durable_queue,
    "replicated_sync": replicated_sync,
    "mesh_batch": mesh_batch,
}


def generate(workload: str, seed: int, quick: bool = False) -> Inputs:
    return GENERATORS[workload](seed, quick)


def digest(inputs: Inputs) -> str:
    """SHA-256 over everything the program will be shown."""
    sha = hashlib.sha256()

    def feed(value: Any) -> None:
        if isinstance(value, bytes):
            sha.update(value)
        elif isinstance(value, (tuple, list)):
            sha.update(b"(")
            for element in value:
                feed(element)
            sha.update(b")")
        else:  # str, int, float, None, dict of those: repr is canonical
            sha.update(repr(value).encode("utf-8"))

    feed([inputs.items, inputs.probe_items, inputs.subscriptions, inputs.queues])
    return sha.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    for workload in WORKLOADS:
        inputs = generate(workload, args.seed, args.quick)
        print(f"{workload} seed={args.seed} messages={inputs.messages} sha256={digest(inputs)}")


if __name__ == "__main__":
    main()
