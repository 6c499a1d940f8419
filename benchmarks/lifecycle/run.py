#!/usr/bin/env python3
"""Lifecycle benchmark: what one message costs end to end and per layer.

Three ways to call it, all from the root of a checkout::

    python3 benchmarks/lifecycle/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/lifecycle/run.py [--seed N] [--trace] [--quick] [--out FILE]
    python3 benchmarks/lifecycle/run.py --compare A.json B.json

The first form measures one workload in this (single-threaded) process,
prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The second runs all four workloads one after another,
each in a child process of the first form with ``PYTHONHASHSEED=0``, and
writes their numbers to one summary file.  The third compares two
summaries metric by metric against the bounds in ``BENCHMARK.json``.

``--seconds`` is the measured time: repetitions of the workload's fixed
input are run until their timed loops add up to it.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import tracing
from compare import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
#: Repetitions of any one kind in a run: at least / at most.
MIN_REPETITIONS = 3
MAX_REPETITIONS = 12
#: Share of a warm-up repetition's items (it is discarded).
WARMUP_SHARE = 0.1
#: Shares of ``--seconds`` for the untraced, traced and ablation
#: repetitions of a traced run (one counting repetition comes first).
TRACE_SHARES = (0.25, 0.25, 0.1)


def load_declaration() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_product() -> float:
    """Put this checkout's ``src`` first on the path, import the stack
    under test and return how long that took.  A ``repro`` from anywhere
    else is refused: the benchmark measures the checkout it sits in."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import repro
    import workloads  # noqa: F401  (imports every layer's package)

    elapsed = perf_counter() - start
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")
    return elapsed


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def repeat(seconds: float, minimum: int, run: Callable[[], Any]) -> list:
    """Run repetitions until their timed loops add up to ``seconds``."""
    repetitions: list = []
    while len(repetitions) < minimum or (
        sum(r.wall_elapsed_s for r in repetitions) < seconds
        and len(repetitions) < MAX_REPETITIONS
    ):
        repetitions.append(run())
    return repetitions


def calibrated(repetitions: list, raw: Callable[[Any], float]) -> List[float]:
    """One raw time per repetition, rescaled by that repetition's factor."""
    return [raw(r) * r.factor for r in repetitions]


def end_to_end(repetitions: list) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics: median over repetitions of the calibrated
    values, with the per-repetition samples and the raw median."""
    series = {
        "setup_s": (lambda r: r.raw_setup_s * r.factor, lambda r: r.raw_setup_s),
        "msgs_per_s": (lambda r: r.msgs_per_s, lambda r: r.messages / r.raw_elapsed_s),
        "lat_p50_us": (lambda r: r.p50_s * 1e6, lambda r: r.raw_p50_s * 1e6),
        "lat_p99_us": (lambda r: r.p99_s * 1e6, lambda r: r.raw_p99_s * 1e6),
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, (value, raw) in series.items():
        samples = [value(r) for r in repetitions]
        metrics[name] = {
            "value": median(samples),
            "raw": median(raw(r) for r in repetitions),
            "samples": samples,
        }
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": peak, "raw": peak, "samples": [peak]}
    return metrics


def span_metrics(repetition: Any) -> Dict[str, float]:
    """Per-layer times of one traced repetition, from its span summary:
    microseconds of self time per message, raw, and the layer shares."""
    spans = repetition.spans
    lifecycle_total = spans[tracing.ROOT]["total"]
    layers: Dict[str, float] = {}
    for name, entry in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self"]

    def self_us(*names: str, per: int = repetition.messages) -> float:
        return sum(spans[name]["self"] for name in names if name in spans) * 1e6 / per

    def under(prefix: str) -> List[str]:
        return [name for name in spans if name.startswith(prefix)]

    values = {
        "broker.message_build_us": self_us("broker.message_build"),
        "broker.publish_self_us": self_us("broker.publish"),
        "broker.queue_cycle_self_us": self_us("broker.send", "broker.receive", "broker.ack"),
        "broker.batch_self_us_per_msg": self_us(
            "broker.send_batch", "broker.publish_batch", "broker.drain"
        ),
        "durability.log_us_per_msg": self_us(*under("durability.journal.")),
        "durability.disk_us_per_msg": self_us(*under("durability.disk.")),
        "replication.tick_us_per_msg": self_us("replication.tick"),
        "replication.tail_poll_us_per_msg": self_us("replication.tail_poll"),
        "replication.standby_apply_us_per_msg": self_us("replication.standby_receive"),
        "mesh.route_self_us_per_batch": self_us(*under("mesh."), per=repetition.lifecycles),
    }
    for layer in ("bench", "broker", "durability", "replication", "mesh"):
        values[f"{layer}.share_frac"] = layers.get(layer, 0.0) / lifecycle_total
    return values


def per_layer(
    workload: Any, counted: Any, plain: list, traced: list, ablated: list
) -> Dict[str, float]:
    """Every per-layer value this workload has; the rest are reported 0."""
    # Exact counts: from the one counting repetition.
    values: Dict[str, float] = dict(counted.counts)
    values["durability.disk_calls_per_msg"] = counted.disk_calls / counted.messages
    # Times from spans: median over the traced repetitions, rescaled by
    # the *untraced* repetitions' factor.  A traced repetition's own slices
    # run 10-25 % slow (the growing span store keeps them on fresh
    # memory), which would flatter every traced time.
    speed = median(r.factor for r in plain)
    per_repetition = [span_metrics(r) for r in traced]
    for name in per_repetition[0]:
        values[name] = median(v[name] for v in per_repetition) * (
            1.0 if name.endswith("_frac") else speed
        )
    # What the workload measures for itself (Eq. 1, plans, slope).
    for repetitions in (plain, ablated):
        for name in repetitions[0].extras:
            values[name] = median(r.extras[name] for r in repetitions)
    # Checkpoints and the crash/recover probe.
    if workload.checkpoint_metric:
        values[workload.checkpoint_metric] = 1e3 * median(
            calibrated(plain, lambda r: median(r.raw_checkpoints_s))
        )
    for name in plain[0].probe.timings if plain[0].probe else ():
        values[name] = 1e3 * median(calibrated(plain, lambda r: r.probe.timings[name]))
    # The layer's marginal cost: this loop minus the loop one layer short.
    if workload.marginal_metric:
        values[workload.marginal_metric] = 1e6 * (
            median(r.mean_s * r.lifecycles / r.messages for r in plain)
            - median(r.mean_s * r.lifecycles / r.messages for r in ablated)
        )
    values["bench.trace_overhead_frac"] = 1 - median(
        r.messages / r.raw_elapsed_s for r in traced
    ) / median(r.messages / r.raw_elapsed_s for r in plain)
    values["bench.stolen_frac"] = median(r.stolen_frac for r in plain)
    values["bench.calib_ms"] = 1e3 * median(r.calib_s for r in plain)
    return values


def traced_run(workload: Any, seconds: float, measure: Any) -> tuple:
    """The traced pass: one counting repetition, then untraced, traced and
    ablation repetitions.  Returns the per-layer values and the
    repetitions whose outcomes were checked; writes the last traced
    repetition's spans to ``out/``."""
    tracers = [tracing.Tracer(count_queries=True)]
    counted = measure.run_repetition(workload, tracer=tracers[0])

    def run_traced() -> Any:
        tracers.append(tracing.Tracer())
        return measure.run_repetition(workload, tracer=tracers[-1])

    plain_s, traced_s, ablation_s = (share * seconds for share in TRACE_SHARES)
    plain = repeat(plain_s, 1, lambda: measure.run_repetition(workload, extras=True))
    traced = repeat(traced_s, 1, run_traced)
    ablated = repeat(
        ablation_s, 1, lambda: measure.run_repetition(workload, ablation=True, extras=True)
    )
    spans = tracers[-1].spans
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(spans, str(OUT / f"{workload.name}.spans.csv"))
    problems = tracing.check_tree(spans)
    if problems:
        raise SystemExit("span tree is unsound:\n" + "\n".join(problems[:20]))
    return per_layer(workload, counted, plain, traced, ablated), [counted] + plain + traced


def run_workload(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    import_s = import_product()
    import inputs as input_module
    import measure
    from workloads import WORKLOADS

    inputs = input_module.generate(args.workload, args.seed, args.quick)
    workload = WORKLOADS[args.workload](inputs, args.quick)
    print(f"# {args.workload} seed={args.seed} messages/repetition={inputs.messages}")

    start = perf_counter()
    first = workload.build()
    first.lifecycle(inputs.items[0])
    cold_start_s = import_s + perf_counter() - start
    del first
    # Inputs (and the imported modules) live as long as the process: keep
    # the collector from re-walking them on every full collection.
    gc.collect()
    gc.freeze()
    if not args.quick:
        warmup = inputs.items[: max(int(len(inputs.items) * WARMUP_SHARE), 1)]
        measure.run_repetition(workload, items=warmup)

    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "messages_per_repetition": inputs.messages,
    }
    if args.trace:
        declared = declaration["per_layer"]
        values, repetitions = traced_run(workload, args.seconds, measure)
        values["bench.timer_overhead_ns"] = measure.timer_overhead_ns()
        values["bench.cold_start_ms"] = 1e3 * cold_start_s
        unknown = set(values) - {entry["name"] for entry in declared}
        if unknown:
            raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        metrics = {entry["name"]: values.get(entry["name"], 0.0) for entry in declared}
        detail["per_layer"] = metrics
    else:
        declared = declaration["end_to_end"]
        repetitions = repeat(
            args.seconds,
            1 if args.quick else MIN_REPETITIONS,
            lambda: measure.run_repetition(workload),
        )
        detail["end_to_end"] = end_to_end(repetitions)
        metrics = {name: entry["value"] for name, entry in detail["end_to_end"].items()}

    attempted = sum(r.attempted for r in repetitions)
    failed = sum(r.failed for r in repetitions)
    units = {entry["name"]: entry["unit"] for entry in declared}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    p999 = median(r.p999_s for r in repetitions) * 1e6
    print(f"{args.workload} lat_p99.9_us = {p999:.6g} us (informational)")
    print(
        f"{args.workload} failed_frac = {failed / attempted:.6g}"
        f" ({failed} failed of {attempted} attempted, {len(repetitions)} repetitions)"
    )
    for note in (note for r in repetitions for note in r.notes):
        print(f"{args.workload} FAILED CHECK: {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    detail.update(
        result,
        repetitions=len(repetitions),
        calibration={
            "ref_s": measure.CAL_REF_S,
            "measured_s": median(r.calib_s for r in repetitions),
        },
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as handle:
        json.dump(detail, handle, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_all(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    summary: Dict[str, Any] = {
        "command": declaration["command"],
        "paths": declaration["paths"],
        "environment": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "declared": {key: declaration[key] for key in ("end_to_end", "per_layer")},
        "workloads": {},
    }
    status = 0
    for entry in declaration["workloads"]:
        name = entry["name"]
        merged: Dict[str, Any] = {}
        for trace in (0, 1) if args.trace else (0,):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--trace", str(trace)] + (["--quick"] if args.quick else [])
            written = OUT / f"{name}.trace{trace}.json"
            written.unlink(missing_ok=True)  # never merge a stale run
            child = subprocess.run(command, env={**os.environ, "PYTHONHASHSEED": "0"})
            status = status or child.returncode
            if not written.exists():
                continue
            detail = json.loads(written.read_text())
            summary["calibration"] = {"ref_s": detail["calibration"]["ref_s"]}
            for key in ("messages_per_repetition", "end_to_end", "per_layer", "failed"):
                if key in detail:
                    merged[key] = detail[key]
        summary["workloads"][name] = merged
    summary["claim"] = None
    out = Path(args.out) if args.out else OUT / "summary.json"
    with open(out, "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"# summary written to {out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="1 repetition, 1/20 of the messages")
    parser.add_argument("--out", help="summary file of an all-workloads run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, load_declaration())
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(load_declaration()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One hash seed for every run: str-keyed dicts then collide the
        # same way each time, which takes one source of noise away.
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
