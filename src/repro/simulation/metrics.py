"""Measurement instrumentation for simulation runs.

Reproduces the paper's methodology (Section III-A.2): each experiment runs
for a fixed virtual interval, the first and last slices are discarded as
warmup/cooldown, and throughput is the message count inside the remaining
window divided by its length.  ``sar``-style utilization monitoring is
modelled by :class:`BusyTracker`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MeasurementWindow",
    "WindowedCounter",
    "SampleStats",
    "TimeWeightedStat",
    "BusyTracker",
    "RunMetrics",
]


@dataclass(frozen=True)
class MeasurementWindow:
    """The observation interval of an experiment.

    The paper runs each experiment for 100 s and cuts off the first and last
    5 s; :meth:`paper_default` encodes exactly that.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid window [{self.start}, {self.end}]")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    @classmethod
    def paper_default(cls) -> "MeasurementWindow":
        """100 s run with 5 s warmup and cooldown trimmed (90 s window)."""
        return cls(start=5.0, end=95.0)

    @classmethod
    def trimmed(cls, run_length: float, trim: float) -> "MeasurementWindow":
        """Window for a ``run_length`` run trimming ``trim`` at both ends."""
        if run_length <= 2 * trim:
            raise ValueError(
                f"run length {run_length} leaves no window after trimming {trim} twice"
            )
        return cls(start=trim, end=run_length - trim)


class WindowedCounter:
    """Count events that fall inside a measurement window.

    Used to count received and dispatched messages; its :meth:`rate` is the
    paper's *received/dispatched throughput*.
    """

    def __init__(self, window: MeasurementWindow, name: str = "counter"):
        self.window = window
        self.name = name
        self.in_window = 0
        self.total = 0

    def record(self, time: float, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.total += count
        if self.window.contains(time):
            self.in_window += count

    def rate(self) -> float:
        """Events per second inside the window."""
        return self.in_window / self.window.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WindowedCounter({self.name!r}, in_window={self.in_window})"


class SampleStats:
    """Accumulate scalar observations (e.g. per-message waiting times).

    Keeps every observation so that arbitrary quantiles — the paper reports
    the 99 % and 99.99 % waiting-time quantiles — can be computed exactly.
    """

    def __init__(self, name: str = "samples", window: Optional[MeasurementWindow] = None):
        self.name = name
        self.window = window
        self._values: List[float] = []

    def record(self, value: float, time: Optional[float] = None) -> None:
        """Record ``value``; dropped if a window is set and ``time`` is outside."""
        if self.window is not None:
            if time is None:
                raise ValueError("windowed SampleStats.record() needs a time")
            if not self.window.contains(time):
                return
        self._values.append(float(value))

    def extend(self, values: Sequence[float]) -> None:
        self._values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._values)

    def values(self) -> Sequence[float]:
        """The recorded samples as a numpy array."""
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        if not self._values:
            return math.nan
        return float(np.mean(self._values))

    def moment(self, k: int) -> float:
        """Raw empirical moment ``mean(x**k)``."""
        if not self._values:
            return math.nan
        return float(np.mean(self.values() ** k))

    def variance(self) -> float:
        if len(self._values) < 2:
            return math.nan
        return float(np.var(self._values, ddof=1))

    def std(self) -> float:
        variance = self.variance()
        return math.sqrt(variance) if variance == variance else math.nan

    def cvar(self) -> float:
        mean = self.mean()
        if not mean:
            return math.nan
        return self.std() / mean

    def quantile(self, p: float) -> float:
        """Empirical ``p``-quantile (inverse-CDF definition, as in the paper)."""
        if not 0 < p <= 1:
            raise ValueError(f"quantile level must be in (0, 1], got {p}")
        if not self._values:
            return math.nan
        return float(np.quantile(self.values(), p, method="inverted_cdf"))

    def ccdf(self, thresholds: Sequence[float]) -> Sequence[float]:
        """Empirical complementary CDF ``P(X > t)`` at each threshold."""
        if not self._values:
            return np.asarray([math.nan] * len(thresholds))
        data = sorted(self._values)
        out = [0.0] * len(thresholds)
        for i, t in enumerate(thresholds):
            # count of values strictly greater than t
            idx = bisect_left(data, float(t))
            while idx < len(data) and data[idx] <= t:
                idx += 1
            out[i] = (len(data) - idx) / len(data)
        return np.asarray(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SampleStats({self.name!r}, n={self.count})"


class TimeWeightedStat:
    """Integrate a piecewise-constant signal over virtual time.

    Tracks queue lengths and similar level processes; the time average over
    a window is the integral divided by the window length.
    """

    def __init__(self, initial: float = 0.0, window: Optional[MeasurementWindow] = None):
        self.window = window
        self._level = float(initial)
        self._last_time = 0.0
        self._area = 0.0
        self._max = float(initial)

    @property
    def level(self) -> float:
        return self._level

    @property
    def maximum(self) -> float:
        return self._max

    def update(self, time: float, level: float) -> None:
        """Set the level at ``time``; integrates the previous segment."""
        if time < self._last_time:
            raise ValueError(f"time went backwards: {time} < {self._last_time}")
        self._accumulate(self._last_time, time)
        self._last_time = time
        self._level = float(level)
        self._max = max(self._max, self._level)

    def add(self, time: float, delta: float) -> None:
        self.update(time, self._level + delta)

    def _accumulate(self, t0: float, t1: float) -> None:
        if self.window is not None:
            t0 = max(t0, self.window.start)
            t1 = min(t1, self.window.end)
        if t1 > t0:
            self._area += self._level * (t1 - t0)

    def time_average(self, until: float) -> float:
        """Time-averaged level up to ``until`` (within the window if set)."""
        self._accumulate(self._last_time, until)
        self._last_time = max(self._last_time, until)
        if self.window is not None:
            span = min(until, self.window.end) - self.window.start
        else:
            span = until
        if span <= 0:
            return math.nan
        return self._area / span


class BusyTracker(TimeWeightedStat):
    """Utilization monitor — the simulated counterpart of ``sar``.

    Record ``busy()`` / ``idle()`` transitions of a server; the windowed
    time average is the CPU utilization ρ that the paper keeps at ≥ 98 % for
    saturated runs and at ≤ 90 % for the waiting-time analysis.
    """

    def __init__(self, window: Optional[MeasurementWindow] = None):
        super().__init__(initial=0.0, window=window)

    def busy(self, time: float) -> None:
        self.update(time, 1.0)

    def idle(self, time: float) -> None:
        self.update(time, 0.0)

    def utilization(self, until: float) -> float:
        return self.time_average(until)


@dataclass(frozen=True)
class RunMetrics:
    """Base of a run-result dataclass: :meth:`to_metrics` is generated
    from the fields, so a number is declared once — not once more in a
    dict literal."""

    #: Fields that are not numbers of the run (configs, labels, objects).
    NOT_METRICS: ClassVar[Tuple[str, ...]] = ()
    #: Properties reported beside the fields.
    DERIVED_METRICS: ClassVar[Tuple[str, ...]] = ()

    def to_metrics(self) -> Dict[str, float]:
        """Every number as a flat dict — the determinism fingerprint:
        identical seeds and schedules must give bit-identical dicts."""
        names = [f.name for f in fields(self) if f.name not in self.NOT_METRICS]
        return {name: float(getattr(self, name)) for name in (*names, *self.DERIVED_METRICS)}
