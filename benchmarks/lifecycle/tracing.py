"""Span tracing from outside the program (traced runs only).

The benchmark wraps calls into each layer's public functions at
*instance* level — ``journal.log_publish = tracer.timed(...)`` on the one
object under test — so nothing in ``src/`` is edited and no class is
patched.  One mechanism covers the objects the benchmark constructs
itself (a ``Journal`` handed to ``Broker(journal=...)``) and the ones the
product constructs internally (a ``ReplicatedPair``'s journal, a mesh
shard's broker).  None of the wrapped classes is slotted.

A span is ``(name, start, end, parent, trace_id)``; ``parent`` is the
index of the enclosing span (-1 for a root) and every root opens a new
``trace_id``, so the spans of one message (or one batch) share it.  The
first dotted component of a span name is its layer, the package name.
Spans are tuples of atoms on purpose: the collector stops tracking those,
so half a million of them do not slow the code being traced.

Spans are stamped with the thread CPU clock, like every other time in the
benchmark (see ``measure.py``).  A span costs about a microsecond, more
than ``disk.length`` does.  The
disk's metadata queries (``length``, ``synced_length``, ``list``,
``exists``) are therefore *counted*, in one dedicated repetition, and
not timed: their time stays in the self time of the journal span that
asked.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import thread_time as clock
from typing import Any, Callable, Dict, List

ROOT = "bench.lifecycle"

#: ``SimulatedDisk`` calls that move data: each gets a span.
DISK_DATA_CALLS = ("append", "sync", "read", "create", "delete", "truncate")
#: ``SimulatedDisk`` metadata queries: counted, never timed.
DISK_QUERY_CALLS = ("length", "synced_length", "list", "exists")
#: The broker-facing journal protocol (each ends in ``Journal.append``).
JOURNAL_CALLS = ("log_publish", "log_deliver", "log_ack", "log_expire")


class Tracer:
    """In-memory span recorder; ``count_queries`` adds the call counters."""

    def __init__(self, count_queries: bool = False):
        self.spans: List[tuple] = []
        self.count_queries = count_queries
        self.disk_calls = 0
        self._stack: List[int] = []
        self._trace_id = -1

    def timed(self, name: str, function: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._trace_id += 1
            trace, index = self._trace_id, len(spans)
            stack.append(index)
            spans.append(None)  # the slot children name as their parent
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, trace)
                stack.pop()

        return traced

    def wrap(self, target: object, method: str, name: str) -> None:
        setattr(target, method, self.timed(name, getattr(target, method)))

    def _counted(self, function: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.disk_calls += 1
            return function(*args, **kwargs)

        return counted

    def trace_disk(self, disk: object) -> None:
        for method in DISK_DATA_CALLS:
            function = getattr(disk, method)
            if self.count_queries:
                function = self._counted(function)
            setattr(disk, method, self.timed(f"durability.disk.{method}", function))
        if self.count_queries:
            for method in DISK_QUERY_CALLS:
                setattr(disk, method, self._counted(getattr(disk, method)))

    def trace_journal(self, journal: Any) -> None:
        """Span the journal's write protocol and the disk under it."""
        for method in JOURNAL_CALLS:
            self.wrap(journal, method, f"durability.journal.{method}")
        self.trace_disk(journal.disk)


def self_times(spans: List[tuple]) -> List[float]:
    """Span duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _trace in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [span[2] - span[1] - child for span, child in zip(spans, covered)]


def summarize(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name, *under lifecycle roots only*: count, total, self."""
    selfs = self_times(spans)
    under_root = [False] * len(spans)
    summary: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for index, (name, start, end, parent, _trace) in enumerate(spans):
        under_root[index] = under_root[parent] if parent >= 0 else name == ROOT
        if under_root[index]:
            entry = summary[name]
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += selfs[index]
    return dict(summary)


def check_tree(spans: List[tuple]) -> List[str]:
    """Structural problems: orphan parents, children outside their
    parent, negative self times.  Empty when the tree is sound."""
    problems = []
    for index, (name, start, end, parent, trace) in enumerate(spans):
        if parent >= index or parent < -1:
            problems.append(f"span {index} ({name}): orphan parent {parent}")
            continue
        if end < start:
            problems.append(f"span {index} ({name}): ends before it starts")
        if parent >= 0:
            _pname, pstart, pend, _pp, ptrace = spans[parent]
            if start < pstart or end > pend or trace != ptrace:
                problems.append(f"span {index} ({name}): outside parent {parent}")
    problems.extend(
        f"span {index} ({spans[index][0]}): negative self time {value}"
        for index, value in enumerate(self_times(spans))
        if value < 0
    )
    return problems


def write_spans(spans: List[tuple], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("name", "start_s", "end_s", "parent", "trace_id"))
        writer.writerows(spans)


def read_spans(path: str) -> List[tuple]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return [(n, float(s), float(e), int(p), int(t)) for n, s, e, p, t in rows]
