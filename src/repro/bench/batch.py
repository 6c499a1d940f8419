"""Batched hot-path benchmarks and the M^X/G/1 validation sweep.

Three measurements back the checked-in ``BENCH_batch.json`` baseline
(``python -m repro bench batch``):

``bench_batch_publish``
    A broker with a few hundred property-filter subscriptions ingesting
    the same corpus once through a sequential ``publish`` loop and once
    through :meth:`~repro.broker.server.Broker.publish_batch`.  The
    corpus repeats a small set of property *shapes*, so batched planning
    evaluates each (topic, shape) group once instead of once per
    message.  That saving is gated as the exact filter-evaluation bill
    (``batch_size x subscriptions`` sequentially, ``shapes x
    subscriptions`` batched) beside an ``equivalent`` flag: per-subscriber
    inbox contents and the per-batch dispatch totals must be identical
    between the two modes.  Of the two rates the gate asks only that the
    batch is not slower than the loop it replaces (``BATCH_SPEEDUP_MIN``).

``bench_batch_model``
    The :class:`~repro.core.batch.MXG1Queue` batch-arrival closed form
    against the discrete-event testbed
    (:func:`~repro.simulation.batch_queueing.simulate_mxg1`) on a
    (batch size x utilisation) grid with deterministic batches and
    exponential unit service.  Horizons scale with the batch size (the
    batch epoch rate is rho / b, so large batches need proportionally
    longer runs) and carry a high floor at rho = 0.9 where the queue
    mixes slowly.  Every cell must land within ``MODEL_TOLERANCE``.

``bench_batch_degeneration``
    At X == 1 the M^X/G/1 formulas must *collapse* to the paper's
    Eqs. 4-5 — mean wait and second wait moment are compared against
    the P-K forms (and :class:`~repro.core.mg1.MG1Queue` when numpy is
    importable) to ``PK_TOLERANCE``.

Timing uses the best of ``repeats`` wall-clock passes, like
:mod:`repro.bench.hotpath`; the model sweep is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..broker import Broker, Message, PropertyFilter
from ..core import DeterministicBatchSize, MXG1Queue
from ..core.moments import Moments, relative_error
from ..simulation import Exponential, simulate_mxg1
from ..rng import make_generator
from .hotpath import _best_rates, message_corpus

__all__ = [
    "BatchAcceptance",
    "bench_batch_degeneration",
    "bench_batch_model",
    "bench_batch_publish",
    "batch_message_corpus",
    "format_batch_report",
    "run_batch_bench",
]

#: A batch must not be slower than the sequential loop it replaces —
#: and that is all the timing says.  The ratio is *batched over a cold
#: sequential loop*, so it falls whenever cold planning gets cheaper
#: (``--fast``, 64 filters: 8.8x -> 2.4x with the fused topic scan, ->
#: 1.2-1.6x with boolean-expression selectors) while both absolute rates
#: rise.  What batching saves is exact and gated instead: ``equivalent``
#: and the filter-evaluation bill of the corpus, 4096 -> 512 (``--fast``)
#: and 12800 -> 1600 (:attr:`BatchAcceptance.publish_bill_exact`).
BATCH_SPEEDUP_MIN = 1.0
#: Model-vs-DES mean-wait bar on every (batch, rho) cell.
MODEL_TOLERANCE = 0.05
#: b=1 degeneration bar against Eqs. 4-5.
PK_TOLERANCE = 1e-12

#: Exponential(1) per-message service: raw moments of Exp(mean 1).
UNIT_EXP_SERVICE = Moments(1.0, 2.0, 6.0)

#: Fixed replication seeds for the model sweep (deterministic cells).
SWEEP_SEEDS: Sequence[int] = (11, 23, 47, 89)
#: Target batch epochs per cell, per utilisation (error ~ 1/sqrt(n)).
SWEEP_BATCH_TARGET: Mapping[float, float] = {0.5: 32_000, 0.7: 64_000, 0.9: 80_000}
#: Per-replication horizon floors; rho=0.9 mixes slowly (regeneration
#: cycles ~ 1/(1-rho)^2 service times), so short replications carry a
#: warmup bias that more seeds cannot average away.
SWEEP_HORIZON_FLOOR: Mapping[float, float] = {0.5: 60_000, 0.7: 60_000, 0.9: 700_000}


def batch_message_corpus(
    count: int = 64, shapes: int = 8, topic: str = "orders"
) -> List[Message]:
    """``count`` messages cycling through ``shapes`` distinct property shapes.

    Real publisher batches repeat a handful of message layouts (same
    application properties, different payloads), which is what lets the
    batched planner fold a 64-message batch into ~``shapes`` dispatch
    decisions.  Fresh :class:`Message` objects are built per slot so the
    corpus behaves like genuinely distinct publishes.
    """
    if shapes < 1:
        raise ValueError(f"shapes must be >= 1, got {shapes}")
    base = message_corpus(shapes, topic=topic)
    messages = []
    for i in range(count):
        template = base[i % shapes]
        messages.append(
            Message(
                topic=topic,
                properties=dict(template.properties),
                priority=template.priority,
            )
        )
    return messages


def _build_selective_broker(subscriptions: int, topic: str = "orders") -> Broker:
    """A broker population dominated by *selective* filters.

    Each subscription matches only a narrow ``quantity`` slice, so most
    of a publish's cost is filter evaluation rather than copy fan-out —
    the regime where batched planning (one evaluation per shape group
    instead of per message) shows up in end-to-end throughput.  Fan-out
    heavy populations are covered by :func:`bench_batch_publish`'s
    equivalence probe and the hotpath dispatch bench.
    """
    from .hotpath import SELECTOR_CORPUS

    broker = Broker(topics=[topic])
    for i in range(subscriptions):
        subscriber_id = f"sub-{i:04d}"
        broker.add_subscriber(subscriber_id)
        base = SELECTOR_CORPUS[i % len(SELECTOR_CORPUS)]
        # The equality conjunct keeps filters distinct *and* selective:
        # quantity in the corpus is (i * 13) % 50, so each filter admits
        # at most a couple of the shape groups.
        broker.subscribe(
            subscriber_id,
            topic,
            PropertyFilter(f"({base}) AND quantity = {i % 97}"),
        )
    return broker


def _inbox_bodies(broker: Broker, topic: str) -> Dict[str, List[int]]:
    """Per-subscriber received counts + inbox sizes, the equivalence probe."""
    out: Dict[str, List[int]] = {}
    for subscription in broker.subscriptions(topic):
        subscriber = subscription.subscriber
        out[subscriber.subscriber_id] = [
            subscriber.received_count,
            len(subscriber.inbox),
        ]
    return out


def bench_batch_publish(
    subscriptions: int = 200,
    batch_size: int = 64,
    shapes: int = 8,
    repeats: int = 5,
) -> Dict[str, object]:
    """Sequential publish loop vs. ``publish_batch`` msgs/s, cold planner."""
    topic = "orders"
    corpus = batch_message_corpus(batch_size, shapes=shapes, topic=topic)

    # Equivalence probe on a fresh broker pair: same inbox contents and
    # the same aggregate dispatch accounting, before any timing runs.
    seq_probe = _build_selective_broker(subscriptions, topic=topic)
    bat_probe = _build_selective_broker(subscriptions, topic=topic)
    seq_results = [seq_probe.publish(message, now=0.0) for message in corpus]
    bat_result = bat_probe.publish_batch(corpus, now=0.0)
    equivalent = (
        _inbox_bodies(seq_probe, topic) == _inbox_bodies(bat_probe, topic)
        and [r.copies_delivered for r in seq_results]
        == [r.copies_delivered for r in bat_result.results]
    )
    filters_sequential = sum(r.filters_evaluated for r in seq_results)
    filters_batched = bat_result.filters_evaluated

    seq_broker = _build_selective_broker(subscriptions, topic=topic)
    bat_broker = _build_selective_broker(subscriptions, topic=topic)

    def run_sequential() -> None:
        for message in corpus:
            seq_broker.publish(message, now=0.0)

    def run_batched() -> None:
        bat_broker.publish_batch(corpus, now=0.0)

    sequential_rate, batched_rate = _best_rates(
        [run_sequential, run_batched], len(corpus), repeats
    )
    return {
        "subscriptions": subscriptions,
        "batch_size": batch_size,
        "shapes": shapes,
        "repeats": repeats,
        "msgs_per_s_sequential": sequential_rate,
        "msgs_per_s_batched": batched_rate,
        "speedup": batched_rate / sequential_rate,
        "filters_evaluated_sequential": filters_sequential,
        "filters_evaluated_batched": filters_batched,
        "dispatch_groups": bat_result.groups,
        "equivalent": equivalent,
        # What the grouping stage promises: every filter once per message
        # sequentially, once per shape batched.
        "bill_exact": (
            filters_sequential == len(corpus) * subscriptions
            and filters_batched == shapes * subscriptions
            and bat_result.groups == shapes
        ),
    }


def bench_batch_model(
    batch_sizes: Sequence[int] = (1, 4, 16, 64),
    loads: Sequence[float] = (0.5, 0.7, 0.9),
    seeds: Sequence[int] = SWEEP_SEEDS,
    batch_target: Mapping[float, float] = SWEEP_BATCH_TARGET,
    horizon_floor: Mapping[float, float] = SWEEP_HORIZON_FLOOR,
) -> Dict[str, object]:
    """M^X/G/1 mean wait vs. the DES on a (batch, rho) grid."""
    rows = []
    max_rel_err = 0.0
    for batch_size in batch_sizes:
        law = DeterministicBatchSize(batch_size)
        for rho in loads:
            model = MXG1Queue.from_utilization(rho, law, UNIT_EXP_SERVICE)
            horizon = max(
                horizon_floor[rho],
                batch_target[rho] * batch_size / (rho * len(seeds)),
            )
            waits = []
            for seed in seeds:
                rng = make_generator(1000 + seed)
                result = simulate_mxg1(
                    model.batch_rate, law, Exponential(1.0), rng, horizon
                )
                waits.append(result.mean_wait)
            sim_wait = sum(waits) / len(waits)
            rel_err = relative_error(sim_wait, model.mean_wait)
            max_rel_err = max(max_rel_err, rel_err)
            rows.append(
                {
                    "batch_size": batch_size,
                    "rho": rho,
                    "horizon": horizon,
                    "replications": len(seeds),
                    "model_mean_wait": model.mean_wait,
                    "sim_mean_wait": sim_wait,
                    "rel_err": rel_err,
                    "batching_penalty": model.batching_penalty,
                }
            )
    return {
        "batch_sizes": list(batch_sizes),
        "loads": list(loads),
        "seeds": list(seeds),
        "service": "exponential(mean=1)",
        "batch_law": "deterministic",
        "sweep": rows,
        "max_rel_err": max_rel_err,
    }


def bench_batch_degeneration(
    loads: Sequence[float] = (0.5, 0.7, 0.9),
) -> Dict[str, object]:
    """At X == 1 the batch model must equal the paper's Eqs. 4-5 exactly."""
    law = DeterministicBatchSize(1)
    services = {
        "exponential(mean=1)": UNIT_EXP_SERVICE,
        "deterministic(1)": Moments(1.0, 1.0, 1.0),
    }
    rows = []
    max_err = 0.0
    for service_name, service in services.items():
        for rho in loads:
            model = MXG1Queue.from_utilization(rho, law, service)
            lam = model.message_rate
            # Eq. 4 / Eq. 5, written out so the check needs no numpy.
            pk_mean = lam * service.m2 / (2.0 * (1.0 - rho))
            pk_moment2 = 2.0 * pk_mean**2 + lam * service.m3 / (3.0 * (1.0 - rho))
            err = max(
                abs(model.mean_wait - pk_mean),
                abs(model.wait_moment2 - pk_moment2),
            )
            try:
                mg1 = model.as_mg1()
            except ImportError:  # pragma: no cover - numpy-less fallback
                mg1 = None
            if mg1 is not None:
                err = max(
                    err,
                    abs(model.mean_wait - mg1.mean_wait),
                    abs(model.wait_moment2 - mg1.wait_moment2),
                )
            max_err = max(max_err, err)
            rows.append(
                {
                    "service": service_name,
                    "rho": rho,
                    "mean_wait": model.mean_wait,
                    "pk_mean_wait": pk_mean,
                    "abs_err": err,
                    "checked_mg1": mg1 is not None,
                }
            )
    return {"cells": rows, "max_abs_err": max_err}


@dataclass(frozen=True)
class BatchAcceptance:
    """Pass/fail verdicts of the batch perf + validation gate."""

    publish_speedup: float
    publish_equivalent: bool
    publish_bill_exact: bool
    model_max_rel_err: float
    pk_max_err: float

    @property
    def publish_pass(self) -> bool:
        return self.publish_bill_exact and self.publish_speedup >= BATCH_SPEEDUP_MIN

    @property
    def model_pass(self) -> bool:
        return self.model_max_rel_err <= MODEL_TOLERANCE

    @property
    def degeneration_pass(self) -> bool:
        return self.pk_max_err <= PK_TOLERANCE

    @property
    def passed(self) -> bool:
        return (
            self.publish_pass
            and self.publish_equivalent
            and self.model_pass
            and self.degeneration_pass
        )


def run_batch_bench(fast: bool = False) -> Dict[str, object]:
    """Run all three layers and assemble the ``BENCH_batch.json`` payload."""
    if fast:
        publish = bench_batch_publish(subscriptions=64, repeats=10)
        model = bench_batch_model(
            batch_sizes=(1, 4),
            loads=(0.7,),
            batch_target={0.7: 64_000},
            horizon_floor={0.7: 60_000},
        )
    else:
        publish = bench_batch_publish()
        model = bench_batch_model()
    degeneration = bench_batch_degeneration()
    acceptance = BatchAcceptance(
        publish_speedup=float(publish["speedup"]),  # type: ignore[arg-type]
        publish_equivalent=bool(publish["equivalent"]),
        publish_bill_exact=bool(publish["bill_exact"]),
        model_max_rel_err=float(model["max_rel_err"]),  # type: ignore[arg-type]
        pk_max_err=float(degeneration["max_abs_err"]),  # type: ignore[arg-type]
    )
    return {
        "description": (
            "Batched hot-path baseline: one-call publish_batch vs. the "
            "sequential publish loop on a shape-repeating corpus (cold "
            "planner), the M^X/G/1 batch-arrival closed form vs. the "
            "discrete-event testbed on a batch-size x utilisation grid, "
            "and the b=1 degeneration to the paper's Eqs. 4-5.  Rates "
            "are machine-dependent; the gate asserts the equivalence flag, "
            "the exact filter-evaluation bill (every filter once per "
            "message sequentially, once per shape batched) and the model "
            "errors, which are not — of the batched-over-sequential ratio "
            "only that the batch is not slower than the loop it replaces."
        ),
        "config": {
            "fast": fast,
            "batch_speedup_min": BATCH_SPEEDUP_MIN,
            "model_tolerance": MODEL_TOLERANCE,
            "pk_tolerance": PK_TOLERANCE,
        },
        "publish": publish,
        "model": model,
        "degeneration": degeneration,
        "acceptance": {
            "publish_speedup": acceptance.publish_speedup,
            "publish_pass": acceptance.publish_pass,
            "publish_equivalent": acceptance.publish_equivalent,
            "publish_bill_exact": acceptance.publish_bill_exact,
            "model_max_rel_err": acceptance.model_max_rel_err,
            "model_pass": acceptance.model_pass,
            "pk_max_err": acceptance.pk_max_err,
            "degeneration_pass": acceptance.degeneration_pass,
            "pass": acceptance.passed,
        },
    }


def format_batch_report(payload: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_batch_bench` payload."""
    publish = payload["publish"]
    model = payload["model"]
    degeneration = payload["degeneration"]
    acceptance = payload["acceptance"]
    lines = [
        "batch benchmark",
        (
            f"  publish b={publish['batch_size']}: "  # type: ignore[index]
            f"sequential {publish['msgs_per_s_sequential']:,.0f} msgs/s, "  # type: ignore[index]
            f"batched {publish['msgs_per_s_batched']:,.0f} msgs/s "  # type: ignore[index]
            f"({publish['speedup']:.1f}x, equivalent={publish['equivalent']}, "  # type: ignore[index]
            f"filter evals {publish['filters_evaluated_sequential']} -> "  # type: ignore[index]
            f"{publish['filters_evaluated_batched']})"  # type: ignore[index]
        ),
    ]
    for row in model["sweep"]:  # type: ignore[index]
        lines.append(
            f"  model b={row['batch_size']:>3} rho={row['rho']:g}: "
            f"E[W]={row['model_mean_wait']:.3f} sim={row['sim_mean_wait']:.3f} "
            f"err={row['rel_err']:.2%}"
        )
    lines.append(
        f"  degeneration b=1: max |model - Eq.4/5| = "
        f"{degeneration['max_abs_err']:.2e}"  # type: ignore[index]
    )
    verdict = "PASS" if acceptance["pass"] else "FAIL"  # type: ignore[index]
    lines.append(
        f"  gate: filter bill exact and batched >= {BATCH_SPEEDUP_MIN:g}x sequential "
        f"{'ok' if acceptance['publish_pass'] else 'FAIL'}, "  # type: ignore[index]
        f"model err <= {MODEL_TOLERANCE:.0%} "
        f"{'ok' if acceptance['model_pass'] else 'FAIL'}, "  # type: ignore[index]
        f"P-K degeneration "
        f"{'ok' if acceptance['degeneration_pass'] else 'FAIL'} -> {verdict}"  # type: ignore[index]
    )
    return "\n".join(lines)
