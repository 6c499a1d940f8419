"""Discrete-event simulation substrate.

Provides the virtual-time engine, generator-based processes, sampling
distributions with exact moments, measurement instrumentation (windowed
counters, sample statistics, utilization tracking), the Lindley-recursion
FIFO queue (M/G/1, GI/G/1, M^X/G/1) that cross-validates the closed
forms of :mod:`repro.core`, and the virtual CPU cost model that stands
in for the paper's 3.2 GHz server.
The seeded random streams every model component draws from are the
stdlib-only leaf :mod:`repro.rng`.
"""

from .cpu import CostBreakdown, CpuCostModel
from .distributions import (
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    Gamma,
    Hyperexponential,
    Lognormal,
    Uniform,
)
from .engine import Engine, SimulationError
from .events import Interrupt, ScheduledEvent, Signal
from .metrics import (
    BusyTracker,
    MeasurementWindow,
    RunMetrics,
    SampleStats,
    TimeWeightedStat,
    WindowedCounter,
)
from .process import Process
from .queueing import (
    QueueingResults,
    lindley_waits,
    simulate_gg1,
    simulate_mg1,
    simulate_mxg1,
)

__all__ = [
    "BusyTracker",
    "CostBreakdown",
    "CpuCostModel",
    "Deterministic",
    "Distribution",
    "Empirical",
    "Engine",
    "Erlang",
    "Exponential",
    "Gamma",
    "Hyperexponential",
    "Interrupt",
    "Lognormal",
    "MeasurementWindow",
    "Process",
    "QueueingResults",
    "RunMetrics",
    "SampleStats",
    "ScheduledEvent",
    "Signal",
    "SimulationError",
    "TimeWeightedStat",
    "Uniform",
    "WindowedCounter",
    "lindley_waits",
    "simulate_gg1",
    "simulate_mg1",
    "simulate_mxg1",
]
