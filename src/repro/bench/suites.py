"""The bench suites: one row per committed ``BENCH_<name>.json``.

``python -m repro bench SUITE [--fast] [--out PATH]`` is the one way to
run a row: it records the payload, prints the suite's report, writes the
recording only where ``--out`` points and exits 1 unless
``payload["acceptance"]["pass"]``.  What each suite measures, and why
its bounds are what they are, is the docstring of its module.

A *reproducible* suite runs in virtual time from fixed seeds, so its
full-mode recording is a function of the code alone (and of the numpy
RNG stream): CI re-records it and ``cmp``s it with the committed file.
The other three time wall-clock work and gate on ratios and counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict

from . import batch, durability, faults, hotpath, mesh, overload, replication, resilience

__all__ = ["SUITES", "Suite", "dump"]


@dataclass(frozen=True)
class Suite:
    """One recording: how to make it, how to summarise it, how to compare it."""

    name: str
    #: ``record(fast)`` runs the suite; a suite with one size ignores ``fast``.
    record: Callable[[bool], Dict[str, Any]]
    #: ``report(payload)`` is the few-line summary printed after a run.
    report: Callable[[Dict[str, Any]], str]
    #: Is the full-mode recording byte-identical from run to run?
    reproducible: bool


SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite("batch", batch.run_batch_bench, batch.format_batch_report, False),
        Suite("durability", durability.record, durability.report, False),
        Suite("faults", faults.record, faults.report, True),
        Suite("hotpath", hotpath.run_hotpath_bench, hotpath.format_hotpath_report, False),
        Suite("mesh", mesh.record, mesh.report, True),
        Suite("overload", overload.record, overload.report, True),
        Suite("replication", replication.record, replication.report, True),
        Suite("resilience", resilience.record, resilience.report, True),
    )
}


def dump(payload: Dict[str, Any]) -> str:
    """The bytes of a committed ``BENCH_*.json``."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
