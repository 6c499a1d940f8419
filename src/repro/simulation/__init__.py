"""Discrete-event simulation substrate.

Provides the virtual-time engine, generator-based processes, sampling
distributions with exact moments, measurement instrumentation (windowed
counters, sample statistics, utilization tracking), a G/G/1 queueing station for M/G/1 cross-validation, and the
virtual CPU cost model that stands in for the paper's 3.2 GHz server.
The seeded random streams every model component draws from are the
stdlib-only leaf :mod:`repro.rng`.
"""

from .batch_queueing import simulate_mxg1
from .cpu import CostBreakdown, CpuCostModel
from .distributions import (
    BatchSampler,
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
from .queueing import QueueingResults, QueueingStation, simulate_gg1, simulate_mg1

__all__ = [
    "BatchSampler",
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
    "QueueingStation",
    "RunMetrics",
    "SampleStats",
    "ScheduledEvent",
    "Signal",
    "SimulationError",
    "TimeWeightedStat",
    "Uniform",
    "WindowedCounter",
    "simulate_gg1",
    "simulate_mg1",
    "simulate_mxg1",
]
