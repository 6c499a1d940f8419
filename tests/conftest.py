"""Shared helpers: the conservation invariant and a fresh interpreter.

The :func:`assert_conserved` fixture is the shared entry point to the
message-conservation invariant ("every accepted message has exactly one
fate"); every shape it takes ends in the one product-code check,
:meth:`repro.broker.ledger.LedgerBase.assert_conserved`.

:func:`run_fresh` runs a script in a new interpreter on this checkout's
``src`` — what a test of import behaviour needs, since in-process the
rest of tier-1 has long since imported everything.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.broker.ledger import LedgerBase
from repro.broker.queues import PointToPointQueue

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def _run_fresh(script: str) -> str:
    src = str(REPO_ROOT / "src")
    search_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": search_path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


@pytest.fixture(scope="session")
def run_fresh():
    """``run_fresh(script)``: run it in a fresh interpreter, return stdout."""
    return _run_fresh
