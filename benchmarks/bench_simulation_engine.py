"""Microbenchmarks of the simulation substrate.

Times raw event throughput of the engine and the Lindley-recursion
M/G/1 kernel — the figures that bound how much virtual measurement the
testbed can afford.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import Engine, lindley_waits

from conftest import report


def test_bench_engine_event_throughput(benchmark):
    def run_10k_events():
        engine = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                engine.call_in(1.0, tick)

        engine.call_in(1.0, tick)
        engine.run()
        return count

    result = benchmark(run_10k_events)
    assert result == 10_000
    rate = 10_000 / benchmark.stats.stats.mean
    report(f"\nengine: {rate:,.0f} events/s (wall clock)")


def test_bench_mg1_kernel(benchmark):
    """Waits of 10^6 M/M/1 customers at rho = 0.9 from pre-drawn arrays."""
    rng = np.random.default_rng(1)
    count = 1_000_000
    arrivals = np.cumsum(rng.exponential(1.0 / 0.9, count))
    services = rng.exponential(1.0, count)

    waits = benchmark(lindley_waits, arrivals, services)
    assert waits.shape == (count,)
    rate = count / benchmark.stats.stats.mean
    report(f"\nLindley kernel: {rate:,.0f} customers/s (wall clock)")
