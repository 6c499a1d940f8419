"""End-to-end resilience: deadlines, retry budgets, hedged requests.

The paper's clients wait forever and never retry; real JMS clients time
out, retry, and — past a tipping point — *retry-storm*: each timed-out
attempt spawns another, the extra load makes more attempts time out, and
the system locks into a self-sustaining overload that persists after the
original trigger clears (a metastable failure).  This package is the
production answer, in four pieces:

- :mod:`~repro.resilience.deadline` — a per-message deadline budget and
  the stage pipeline that spends it (ingress wait, journal append, mesh
  hops, replication ack-wait, service), so dead work is shed at the
  first stage that exhausts it;
- :mod:`~repro.resilience.budget` — the token-bucket retry budget that
  caps aggregate retries at ``β · successes + min_rate``;
- :mod:`~repro.resilience.hedge` — speculative duplicates after a
  p99-derived delay, exactly-once via the server's dedup memo;
- :mod:`~repro.resilience.clients` / :mod:`~repro.resilience.experiment`
  / :mod:`~repro.resilience.harness` — the deadline-aware client, the
  DES validation of the retry-amplification fixed-point model
  (:mod:`repro.core.resilience`), and the storm chaos harness proving
  budgeted clients recover from a transient slowdown while unbudgeted
  ones stay stormed.

The package root exports the three primitives, which need only the
stdlib.  ``clients``, ``experiment`` and ``harness`` run on
:mod:`repro.testbed` (numpy) and are imported by module path.
"""

from __future__ import annotations

from .budget import RetryBudget
from .deadline import DeadlineBudget, DeadlinePipeline, StageCrossing
from .hedge import HedgePolicy

__all__ = [
    "DeadlineBudget",
    "DeadlinePipeline",
    "HedgePolicy",
    "RetryBudget",
    "StageCrossing",
]
