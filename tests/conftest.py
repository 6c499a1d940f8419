"""Collection guards and shared invariant helpers.

The broker and simulation packages run on the standard library alone
(numpy is the ``repro[fast]`` extra), but the analysis/core layers and
everything built on them use numpy/scipy directly.  Without numpy those
suites cannot even be imported, so they are excluded from collection
instead of erroring out — what remains still exercises the full
dependency-free surface (broker, selectors, dispatch, simulation).

The :func:`assert_conserved` fixture is the shared entry point to the
message-conservation invariant ("every accepted message has exactly one
fate"); every shape it takes ends in the one product-code check,
:meth:`repro.broker.ledger.LedgerBase.assert_conserved`.
"""

import pytest

from repro.broker.ledger import LedgerBase
from repro.broker.queues import PointToPointQueue

try:
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    _HAVE_NUMPY = False

collect_ignore: list = []

if not _HAVE_NUMPY:  # pragma: no cover - depends on environment
    collect_ignore = [
        "analysis",
        "architectures",
        "core",
        "durability",  # capacity sweep folds into the numpy-backed Eq. 1/2
        "faults",
        "integration",
        "overload",
        "testbed",
        # the mesh itself is numpy-free; only its capacity model is not
        "mesh/test_mesh_capacity.py",
        # resilience primitives (budget/deadline/hedge) are numpy-free;
        # the fixed-point model and the DES harnesses are not
        "resilience/test_fixed_point.py",
        "resilience/test_amplification.py",
        "resilience/test_storm_harness.py",
        "resilience/test_deadline_propagation.py",
        # the CLI wires in the (numpy-backed) analysis layer at import
        "test_cli.py",
        "test_doctests.py",
    ]


def check_conserved(stats, consumers=(), context=""):
    """Assert the message-conservation ledger of ``stats`` balances.

    Three shapes are understood:

    * a :class:`~repro.broker.queues.PointToPointQueue` — its ledger is
      closed with the queue's own gauges and checked by product code
      (``consumers`` is accepted for the callers that pass it; the queue
      already knows its attached consumers, the only ones that can hold
      a delivery);
    * a closed ledger (the mesh's aggregated ``mesh_ledger()``, a
      simulated server's ``closed_ledger()``) — checked as is;
    * an experiment result (``repro.faults`` / ``repro.overload`` /
      ``repro.resilience``) — the closed server ledger it carries is
      checked, then its ``conserved`` property, which adds the clauses
      about the client-side populations.

    The equation itself lives in :mod:`repro.broker.ledger`, once.
    """
    if isinstance(stats, PointToPointQueue):
        stats = stats.closed_ledger()
    if isinstance(stats, LedgerBase):
        stats.assert_conserved(context)
        return
    ledger = getattr(stats, "ledger", None)
    if not isinstance(ledger, LedgerBase):
        raise TypeError(f"assert_conserved: unsupported stats object {stats!r}")
    ledger.assert_conserved(context)
    assert stats.conserved, f"client-side imbalance [{context}]: {stats.to_metrics()}"


@pytest.fixture(scope="session")
def assert_conserved():
    """Session-scoped so hypothesis ``@given`` tests can take it freely."""
    return check_conserved
