"""Repetitions, calibration and the statistics computed from them.

Noise model.  The box is shared, and it adds two kinds of noise.

*Stalls*: the process is descheduled for 1-5 ms many times a second.  The
stack under test never blocks (no I/O, no sleeps, no other thread), so
wall time minus this thread's CPU time is exactly the time neighbours
took.  Every time in the benchmark is therefore read from the **thread
CPU clock** (``time.thread_time``); the wall time of each timed loop is
kept beside it, and their difference is reported as
``bench.stolen_frac``.  Code that started to wait would show there.

*Speed*: the time of identical code moves by 10 % and more between runs
(standard deviation of the log of the calibration time: 0.06-0.10), for
tenths of a second to tens of seconds at a time.  A repetition is
therefore cut into chunks of a few tenths of a second with one slice of a
fixed pure-Python calibration kernel between them, and a chunk's times
are rescaled by ``CAL_REF_S / (mean of the slices on either side)``; the
reported value is the median over repetitions.  ``CAL_REF_S`` and the
kernel are frozen: changing either rebases every number ever recorded.
"""

from __future__ import annotations

import gc
import json
import math
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from time import thread_time as clock
from typing import Any, Dict, List, Optional

from inputs import QUICK_DIVISOR
from tracing import Tracer, summarize
from workloads import ProbeResult, Workload

#: Items per chunk for a workload without a checkpoint period.
DEFAULT_CHUNK = 5_000

#: Median time of one :func:`calibration_kernel` slice on the box that
#: recorded the first baseline.  Frozen.
CAL_REF_S = 0.0188


def calibration_kernel() -> int:
    """Fixed work shaped like the product's hot paths: dict and list
    traffic, small-int arithmetic, calls, and the C helpers the journal
    leans on (``json``, ``crc32``, ``hex``).  Never edit."""
    table: Dict[int, int] = {}
    kept: List[tuple] = []
    payload = bytes(range(256)) * 4
    accumulator = 0
    for i in range(42_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        accumulator = (accumulator * 31 + key) & 0xFFFFFFFF
        if i % 8 == 0:
            kept.append((key, str(accumulator)))
        if i % 64 == 0:
            record = json.dumps({"mid": i, "body": payload.hex()}, sort_keys=True)
            accumulator ^= zlib.crc32(record.encode("utf-8"))
    kept.sort()
    return accumulator + len(kept) + len(table)


def calibrate() -> float:
    start = clock()
    calibration_kernel()
    return clock() - start


def timer_overhead_ns(samples: int = 20_000) -> float:
    stamps = [clock() for _ in range(samples)]
    return median(b - a for a, b in zip(stamps, stamps[1:])) * 1e9


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


@dataclass
class Repetition:
    """One repetition's measurements, all on the thread CPU clock.  Times
    are calibrated unless they say ``raw``; ``factor`` turns any other raw
    time of the repetition (set-up, probe, span) into a calibrated one."""

    factor: float
    #: Mean calibration slice, seconds.
    calib_s: float
    #: Median raw ``build()`` time.
    raw_setup_s: float
    #: The timed loop: calibrated, as it ran, and on the wall clock.
    elapsed_s: float
    raw_elapsed_s: float
    wall_elapsed_s: float
    lifecycles: int
    messages: int
    #: Per-lifecycle latency, seconds: median, p99, p99.9, mean.
    p50_s: float
    p99_s: float
    p999_s: float
    mean_s: float
    raw_p50_s: float
    raw_p99_s: float
    #: Raw time of each periodic checkpoint.
    raw_checkpoints_s: List[float]
    counts: Dict[str, float]
    attempted: int
    failed: int
    probe: Optional[ProbeResult] = None
    #: ``tracing.summarize`` of a traced repetition (raw times).
    spans: Optional[Dict[str, Dict[str, float]]] = None
    disk_calls: int = 0
    #: Workload-specific calibrated values (Eq. 1 fit, slope, ...).
    extras: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def msgs_per_s(self) -> float:
        return self.messages / self.elapsed_s

    @property
    def stolen_frac(self) -> float:
        """Share of the timed loop's wall time this thread did not run."""
        return 1 - self.raw_elapsed_s / self.wall_elapsed_s


def run_repetition(
    workload: Workload,
    *,
    tracer: Optional[Tracer] = None,
    ablation: bool = False,
    items: Optional[list] = None,
    extras: bool = False,
) -> Repetition:
    """Build a fresh stack, drive every item through it, verify, probe.

    Items go through in chunks of one checkpoint period.  After a chunk
    the clock stops, a calibration slice runs, the oracle checks the
    chunk's outcomes and the chunk is dropped: a repetition that kept
    60,000 results alive would mostly measure the garbage collector
    walking them.
    """
    if items is None:
        items = workload.inputs.items
    gc.collect()
    plain = tracer is None and not ablation
    builds = []
    for _ in range(workload.setup_builds if plain else 1):
        start = clock()
        stack = workload.build_ablation() if ablation else workload.build(tracer)
        builds.append(clock() - start)
    gc.collect()

    lifecycle, maintain = stack.lifecycle, stack.maintain
    period = stack.every or DEFAULT_CHUNK
    # --quick shortens the checkpoint period with the input; its chunks
    # keep the full run's length, or the slices would outweigh the work.
    chunk = period * (QUICK_DIVISOR if workload.quick else 1)
    accumulator = EXTRAS[workload.name, ablation]() if extras else None
    raw_latencies: List[float] = []
    latencies: List[float] = []
    checkpoints: List[float] = []
    slices = [calibrate()]
    elapsed = raw_elapsed = wall_elapsed = 0.0
    failed = 0
    for offset in range(0, len(items), chunk):
        part = items[offset : offset + chunk]
        outcomes: List[Any] = []
        timings: List[float] = []
        record, keep = timings.append, outcomes.append
        wall_begin = perf_counter()
        begin = clock()
        for start in range(0, len(part), period):
            last = clock()
            for item in part[start : start + period]:
                # One clock read per lifecycle: each starts where the last ended.
                keep(lifecycle(item))
                now = clock()
                record(now - last)
                last = now
            if maintain is not None and start + period <= len(part):
                maintain()
                checkpoints.append(clock() - last)
        took = clock() - begin
        wall_elapsed += perf_counter() - wall_begin
        slices.append(calibrate())
        factor = CAL_REF_S / ((slices[-2] + slices[-1]) / 2)
        raw_elapsed += took
        elapsed += took * factor
        scaled = [seconds * factor for seconds in timings]
        raw_latencies.extend(timings)
        latencies.extend(scaled)
        failed += stack.verify(part, outcomes)
        if accumulator is not None:
            accumulator.add(part, scaled, outcomes, factor)

    counts = stack.counts()
    probe = stack.probe() if stack.probe is not None else None
    share = len(items) / len(workload.inputs.items)
    latencies.sort()
    raw_latencies.sort()
    repetition = Repetition(
        factor=elapsed / raw_elapsed,
        calib_s=sum(slices) / len(slices),
        raw_setup_s=median(builds),
        elapsed_s=elapsed,
        raw_elapsed_s=raw_elapsed,
        wall_elapsed_s=wall_elapsed,
        lifecycles=len(items),
        messages=round(workload.inputs.messages * share),
        p50_s=percentile(latencies, 0.5),
        p99_s=percentile(latencies, 0.99),
        p999_s=percentile(latencies, 0.999),
        mean_s=sum(latencies) / len(latencies),
        raw_p50_s=percentile(raw_latencies, 0.5),
        raw_p99_s=percentile(raw_latencies, 0.99),
        raw_checkpoints_s=checkpoints,
        counts=counts,
        attempted=len(items) + (probe.attempted if probe else 0),
        failed=failed + (probe.failed if probe else 0),
        probe=probe,
        notes=list(probe.notes) if probe else [],
    )
    if tracer is not None:
        repetition.spans = summarize(tracer.spans)
        repetition.disk_calls = tracer.disk_calls
    if accumulator is not None:
        repetition.extras = accumulator.result()
    return repetition


# ----------------------------------------------------------------------
# Workload-specific statistics, accumulated chunk by chunk
# ----------------------------------------------------------------------
class NoExtras:
    """Fed one chunk at a time: its items, calibrated latencies and
    outcomes, and the factor that calibrated them."""

    def add(self, items: list, latencies: List[float], outcomes: list, factor: float) -> None:
        pass

    def result(self) -> Dict[str, float]:
        return {}


class Eq1Fit(NoExtras):
    """Least squares of per-publish latency on ``(filters evaluated,
    copies delivered)``: the paper's ``E[B] = t_rcv + n_fltr t_fltr +
    R t_tx`` applied to this broker.  Times in microseconds.  The
    residual is the mean absolute one over the mean latency: a handful of
    scheduler stalls would own a root-mean-square."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def add(self, items: list, latencies: List[float], outcomes: list, factor: float) -> None:
        self.rows.extend(
            (float(result.filters_evaluated), float(result.copies_delivered), latency * 1e6)
            for result, latency in zip(outcomes, latencies)
        )

    def result(self) -> Dict[str, float]:
        normal = [[0.0] * 4 for _ in range(3)]  # X'X | X'y
        for n, r, y in self.rows:
            x = (1.0, n, r)
            for i in range(3):
                row, xi = normal[i], x[i]
                row[0] += xi
                row[1] += xi * n
                row[2] += xi * r
                row[3] += xi * y
        for pivot in range(3):  # Gauss-Jordan on the 3x4 system
            scale = normal[pivot][pivot]
            if abs(scale) < 1e-12:
                return {}
            normal[pivot] = [value / scale for value in normal[pivot]]
            for other in range(3):
                if other != pivot:
                    ratio = normal[other][pivot]
                    normal[other] = [
                        a - ratio * b for a, b in zip(normal[other], normal[pivot])
                    ]
        t_rcv, t_fltr, t_tx = (normal[i][3] for i in range(3))
        residual = sum(abs(y - (t_rcv + n * t_fltr + r * t_tx)) for n, r, y in self.rows)
        return {
            "broker.t_rcv_us": t_rcv,
            "broker.t_fltr_us": t_fltr,
            "broker.t_tx_us": t_tx,
            "broker.eq1_residual_frac": residual / sum(y for _n, _r, y in self.rows),
        }


class PlanTimes(NoExtras):
    """Median ``dry_run`` time of warm (memo hit) and cold plans, from the
    planning-only ablation whose outcomes are ``(seconds, filters)``."""

    def __init__(self) -> None:
        self.warm: List[float] = []
        self.cold: List[float] = []

    def add(self, items: list, latencies: List[float], outcomes: list, factor: float) -> None:
        for seconds, filters in outcomes:
            (self.cold if filters else self.warm).append(seconds * factor)

    def result(self) -> Dict[str, float]:
        return {
            "broker.warm_plan_us": median(self.warm) * 1e6 if self.warm else 0.0,
            "broker.cold_plan_us": median(self.cold) * 1e6 if self.cold else 0.0,
        }


class SlopePerKib(NoExtras):
    """Latency slope over body size, between the medians of the smallest
    and the largest body class."""

    def __init__(self) -> None:
        self.by_size: Dict[int, List[float]] = {}

    def add(self, items: list, latencies: List[float], outcomes: list, factor: float) -> None:
        for item, latency in zip(items, latencies):
            self.by_size.setdefault(len(item[2]), []).append(latency)

    def result(self) -> Dict[str, float]:
        if len(self.by_size) < 2:
            return {}
        small, large = min(self.by_size), max(self.by_size)
        rise = median(self.by_size[large]) - median(self.by_size[small])
        return {"durability.us_per_kib": rise * 1e6 / ((large - small) / 1024)}


#: ``(workload, ablation) -> accumulator``.
EXTRAS: Dict[tuple, type] = defaultdict(lambda: NoExtras)
EXTRAS["fanout_filtered", False] = Eq1Fit
EXTRAS["fanout_filtered", True] = PlanTimes
EXTRAS["durable_queue", False] = SlopePerKib
